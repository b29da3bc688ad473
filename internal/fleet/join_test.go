package fleet_test

import (
	"strings"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/rpc"
)

// TestJoinRefusesAnotherModel: a single-model member's one tenant is named
// after its model, so a member serving another model hosts another tenant
// and the fleet refuses it — in process through Add, and over the wire
// through a remote join — with an error naming both tenants.
func TestJoinRefusesAnotherModel(t *testing.T) {
	build := func(name string) *model.Model {
		cfg, err := model.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	f, err := fleet.New([]live.Config{{Model: build("NCF"), Workers: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	refused := func(how string, id int, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `"WnD"`) || !strings.Contains(err.Error(), `"NCF"`) {
			t.Errorf("%s of a WnD member into an NCF fleet: replica %d, error %v; want a refusal naming both tenants", how, id, err)
		}
	}

	wnd := build("WnD")
	id, err := f.Add(live.Config{Model: wnd, Workers: 1})
	refused("in-process Add", id, err)

	svc, err := live.New(live.Config{Model: wnd, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := rpc.NewServer(svc, rpc.ServerConfig{Model: "WnD"})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := rpc.NewRemoteReplica(addr)
	if err != nil {
		t.Fatal(err)
	}
	id, err = f.AddBackend(r)
	refused("remote join", id, err)

	if st := f.Stats(); len(st.Replicas) != 1 {
		t.Errorf("fleet has %d members after two refused joins, want 1", len(st.Replicas))
	}
}
