package pvaunit

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"pva/internal/kernels"
	"pva/internal/trace"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/event_pin.txt")

const eventPinFile = "testdata/event_pin.txt"

// TestEventStreamPin pins, per cell, the cycle count and an FNV-64 hash
// of the whole Observer event stream, so the order of events within a
// cycle is pinned too, not only the cycles the goldens hold: every
// indexed kernel at strides 1 and 19 and alignments 0 and 3 on four
// xor-decoded PCM channels, and every strided kernel at stride 19,
// alignment 0 on the paper machine, at 1024 elements.
// testdata/event_pin.txt was captured before the channel dispatcher
// became event-driven; -update rewrites it.
func TestEventStreamPin(t *testing.T) {
	type cell struct {
		machine string
		cfg     Config
		kernel  kernels.Kernel
		stride  uint32
		align   int
	}
	var cells []cell
	for _, k := range kernels.Indexed() {
		for _, s := range []uint32{1, 19} {
			for _, a := range []int{0, 3} {
				cells = append(cells, cell{"4ch-xor-pcm-4p", machineConfig(t, 4, "xor", "pcm", 4), k, s, a})
			}
		}
	}
	for _, k := range kernels.All() {
		cells = append(cells, cell{"paper", PaperConfig(), k, 19, 0})
	}
	var got []string
	for _, c := range cells {
		h := fnv.New64a()
		n := 0
		cfg := c.cfg
		cfg.Observer = func(e trace.Event) {
			hashEvent(h, e)
			n++
		}
		res, err := MustNew(cfg).Run(c.kernel.Build(kernels.PaperParams(c.stride, c.align)))
		if err != nil {
			t.Fatalf("%s %s stride %d align %d: %v", c.machine, c.kernel.Name, c.stride, c.align, err)
		}
		got = append(got, fmt.Sprintf("%s %s stride %d align %d cycles=%d events=%d hash=%016x",
			c.machine, c.kernel.Name, c.stride, c.align, res.Cycles, n, h.Sum64()))
	}
	if *updatePin {
		if err := os.WriteFile(eventPinFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(eventPinFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d cells, pin has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}

// hashEvent feeds every field of e to h in a fixed binary layout.
func hashEvent(h hash.Hash64, e trace.Event) {
	var b [41]byte
	binary.LittleEndian.PutUint64(b[0:], e.Cycle)
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(e.Bank)))
	binary.LittleEndian.PutUint64(b[16:], uint64(int64(e.Txn)))
	binary.LittleEndian.PutUint32(b[24:], e.IBank)
	binary.LittleEndian.PutUint32(b[28:], e.Row)
	binary.LittleEndian.PutUint32(b[32:], e.Col)
	binary.LittleEndian.PutUint32(b[36:], e.Elem)
	b[40] = byte(e.Kind)
	if e.Auto {
		b[40] |= 0x80
	}
	h.Write(b[:])
}
