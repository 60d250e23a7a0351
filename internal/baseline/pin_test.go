package baseline

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"pva/internal/addrmap"
	"pva/internal/kernels"
	"pva/internal/memsys"
)

var update = flag.Bool("update", false, "rewrite testdata/serial_pin.txt")

const pinFile = "testdata/serial_pin.txt"

// TestSerialPin runs both serial baselines over every kernel (indexed
// ones included) × the paper strides × every alignment × 1, 2 and 4
// channels × the word, line and xor decoders at 256 elements, and
// compares each (system, kernel, decoder, channels) group's total cycles
// and a hash of every run's cycles, Stats, ChannelStats and read data
// with testdata/serial_pin.txt. The harness goldens pin only the
// single-channel strided cells; this pins the rest.
func TestSerialPin(t *testing.T) {
	var got []string
	for _, ch := range []uint32{1, 2, 4} {
		for _, spec := range []string{"word", "line", "xor"} {
			dec, err := addrmap.Parse(spec, ch, 16, 32)
			if err != nil {
				t.Fatal(err)
			}
			systems := []func() memsys.System{
				func() memsys.System { return NewCacheLineSerialChannels(ch) },
				func() memsys.System { return NewGatheringSerialChannels(dec) },
			}
			for _, newSys := range systems {
				for _, name := range kernels.Names() {
					k, err := kernels.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					var cycles uint64
					var sysName string
					h := fnv.New64a()
					for _, stride := range []uint32{1, 2, 4, 8, 16, 19} {
						for align := 0; align < kernels.Alignments; align++ {
							p := kernels.PaperParams(stride, align)
							p.Elements = 256
							sys := newSys()
							sysName = sys.Name()
							res, err := sys.Run(k.Build(p))
							if err != nil {
								t.Fatalf("%s %s stride %d align %d %s %dch: %v", sysName, name, stride, align, spec, ch, err)
							}
							cycles += res.Cycles
							fmt.Fprintf(h, "%d %+v %v\n", res.Cycles, res.Stats, res.ChannelStats)
							for _, line := range res.ReadData {
								h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(line))))
								for _, w := range line {
									h.Write(binary.LittleEndian.AppendUint32(nil, w))
								}
							}
						}
					}
					got = append(got, fmt.Sprintf("%s %s %s %d cycles=%d hash=%016x", sysName, name, spec, ch, cycles, h.Sum64()))
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(pinFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d groups, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}
