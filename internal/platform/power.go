package platform

// PowerModel computes system power draw for the QPS/W efficiency metric
// (paper Fig. 11 bottom, Fig. 14 bottom). The CPU package is accounted at
// TDP — the paper normalizes efficiency "under the TDP power budget" — and
// the accelerator, when provisioned, adds its idle draw plus a
// utilization-proportional share of its remaining headroom.
type PowerModel struct {
	CPU *CPU
	GPU *GPU // nil when no accelerator is provisioned
}

// Watts returns the system draw at the given accelerator utilization in
// [0, 1]. Utilization outside the range is clamped.
func (pm PowerModel) Watts(gpuUtil float64) float64 {
	w := pm.CPU.TDPWatts
	if pm.GPU != nil {
		if gpuUtil < 0 {
			gpuUtil = 0
		}
		if gpuUtil > 1 {
			gpuUtil = 1
		}
		w += pm.GPU.IdleWatts + float64(gpuUtil*(pm.GPU.TDPWatts-pm.GPU.IdleWatts))
	}
	return w
}

// QPSPerWatt converts a throughput into the efficiency metric.
func (pm PowerModel) QPSPerWatt(qps, gpuUtil float64) float64 {
	return qps / pm.Watts(gpuUtil)
}
