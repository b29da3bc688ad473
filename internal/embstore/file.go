package embstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
)

// Table file format (little-endian), one file per (table, shard):
//
//	offset  0  magic   "DRSEMB1\x00"
//	offset  8  version uint32 (1)
//	offset 12  dim     uint32
//	offset 16  seed    int64   (base seed; 0 allowed)
//	offset 24  table   int64   (table index within the model)
//	offset 32  rows    int64   (full table rows, across all shards)
//	offset 40  lo      int64   (first global row stored in this file)
//	offset 48  count   int64   (rows stored in this file)
//	offset 56  mode    uint32  (modePerRow | modeStream)
//	offset 60  pad     uint32
//	offset 64  data    count*dim*4 bytes of float32 rows
//
// The 64-byte header keeps the data region aligned for the mmap'd float32
// view (the mapping starts at a page boundary, so data begins 64 bytes in).
const (
	fileMagic  = "DRSEMB1\x00"
	fileVer    = 1
	headerSize = 64

	modePerRow = 1 // rows from FillRow(seed, table, row): O(1) addressable
	modeStream = 2 // rows from one sequential classic-zoo RNG stream
)

// Header describes a table file's geometry and provenance.
type Header struct {
	Dim   int
	Seed  int64
	Table int
	Rows  int // full table rows
	Lo    int // first global row in this file
	Count int // rows in this file
	Mode  int
}

func (h Header) dataSize() int64 { return int64(h.Count) * int64(h.Dim) * 4 }

func (h Header) encode() []byte {
	b := make([]byte, headerSize)
	copy(b, fileMagic)
	le := binary.LittleEndian
	le.PutUint32(b[8:], fileVer)
	le.PutUint32(b[12:], uint32(h.Dim))
	le.PutUint64(b[16:], uint64(h.Seed))
	le.PutUint64(b[24:], uint64(h.Table))
	le.PutUint64(b[32:], uint64(h.Rows))
	le.PutUint64(b[40:], uint64(h.Lo))
	le.PutUint64(b[48:], uint64(h.Count))
	le.PutUint32(b[56:], uint32(h.Mode))
	return b
}

func decodeHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < headerSize || string(b[:8]) != fileMagic {
		return h, fmt.Errorf("embstore: not a table file (bad magic)")
	}
	le := binary.LittleEndian
	if v := le.Uint32(b[8:]); v != fileVer {
		return h, fmt.Errorf("embstore: unsupported table file version %d", v)
	}
	h.Dim = int(le.Uint32(b[12:]))
	h.Seed = int64(le.Uint64(b[16:]))
	h.Table = int(le.Uint64(b[24:]))
	h.Rows = int(le.Uint64(b[32:]))
	h.Lo = int(le.Uint64(b[40:]))
	h.Count = int(le.Uint64(b[48:]))
	h.Mode = int(le.Uint32(b[56:]))
	if h.Dim <= 0 || h.Rows <= 0 || h.Count <= 0 || h.Lo < 0 || h.Lo+h.Count > h.Rows {
		return h, fmt.Errorf("embstore: corrupt table file header (rows %d, lo %d, count %d, dim %d)", h.Rows, h.Lo, h.Count, h.Dim)
	}
	if h.Mode != modePerRow && h.Mode != modeStream {
		return h, fmt.Errorf("embstore: unknown table file mode %d", h.Mode)
	}
	return h, nil
}

// FilePath is the canonical on-disk name for one table's (shard) file under
// dir. Generate writes these names and the mmap backend resolves them, so
// `deeprecsys tables gen` output is directly servable with `-store mmap:dir`.
func FilePath(dir string, seed int64, table, rows, dim int, shard Shard) string {
	name := fmt.Sprintf("emb_s%d_t%d_r%d_d%d", seed, table, rows, dim)
	if shard.Count > 1 {
		name += fmt.Sprintf("_p%dof%d", shard.Index, shard.Count)
	}
	return filepath.Join(dir, name+".emb")
}

// Generate materializes the per-row-seeded table file for (seed, table) at
// the given geometry, holding only shard's row range. It streams rows
// straight to disk (constant memory) and is safe to run per shard on
// different machines: content depends only on the coordinates. The file is
// written atomically (temp + rename), so a crashed or concurrent generation
// never leaves a truncated file behind. progress, when non-nil, is called
// with rows written so far at intervals.
func Generate(dir string, seed int64, table, rows, dim int, shard Shard, progress func(done, total int)) (string, error) {
	if rows <= 0 || dim <= 0 {
		return "", fmt.Errorf("embstore: invalid table geometry %d x %d", rows, dim)
	}
	if err := shard.Validate(); err != nil {
		return "", err
	}
	lo, count := shard.Range(rows)
	if count <= 0 {
		return "", fmt.Errorf("embstore: shard %s of %d rows is empty", shard, rows)
	}
	h := Header{Dim: dim, Seed: seed, Table: table, Rows: rows, Lo: lo, Count: count, Mode: modePerRow}
	path := FilePath(dir, seed, table, rows, dim, shard)
	err := writeFile(path, h, func(putRow func([]float32) error) error {
		row := make([]float32, dim)
		for i := 0; i < count; i++ {
			FillRow(row, seed, table, lo+i)
			if err := putRow(row); err != nil {
				return err
			}
			if progress != nil && (i+1)%(1<<16) == 0 {
				progress(i+1, count)
			}
		}
		if progress != nil {
			progress(count, count)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// WriteFileStream writes a full (unsharded) table file whose rows are drawn
// sequentially from rng on the classic zoo stream — consuming exactly
// rows*dim NormFloat64 draws, see FillRowsStream. It exists for the
// bit-exact parity path against the in-memory default at small scale;
// at-scale files come from Generate.
func WriteFileStream(path string, rng *rand.Rand, seed int64, table, rows, dim int) error {
	if rows <= 0 || dim <= 0 {
		return fmt.Errorf("embstore: invalid table geometry %d x %d", rows, dim)
	}
	h := Header{Dim: dim, Seed: seed, Table: table, Rows: rows, Lo: 0, Count: rows, Mode: modeStream}
	row := make([]float32, dim)
	return writeFile(path, h, func(putRow func([]float32) error) error {
		for i := 0; i < rows; i++ {
			FillRowsStream(row, rng, 1, dim)
			if err := putRow(row); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeFile streams header + rows to a temp file in path's directory and
// renames it into place.
func writeFile(path string, h Header, emit func(putRow func([]float32) error) error) (err error) {
	if mkerr := os.MkdirAll(filepath.Dir(path), 0o755); mkerr != nil {
		return mkerr
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriterSize(tmp, 1<<20)
	if _, err = w.Write(h.encode()); err != nil {
		return err
	}
	buf := make([]byte, h.Dim*4)
	putRow := func(row []float32) error {
		for j, v := range row {
			binary.LittleEndian.PutUint32(buf[j*4:], math.Float32bits(v))
		}
		_, werr := w.Write(buf)
		return werr
	}
	if err = emit(putRow); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
