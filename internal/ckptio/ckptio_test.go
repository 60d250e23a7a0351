package ckptio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pva/internal/memsys"
)

var update = flag.Bool("update", false, "rewrite testdata/ckpt_v1.golden")

// goldenCheckpoint is the fixed checkpoint pinned by testdata: three
// pages with address-derived contents and a recognizable config hash.
func goldenCheckpoint(t *testing.T) Checkpoint {
	t.Helper()
	pages := map[uint32][]uint32{}
	for _, pn := range []uint32{0, 3, 17} {
		p := make([]uint32, memsys.PageWords)
		for i := range p {
			p[i] = pn*2654435761 + uint32(i)*0x9e3779b9
		}
		pages[pn] = p
	}
	img, err := memsys.NewImage(pages)
	if err != nil {
		t.Fatal(err)
	}
	return Checkpoint{ConfigHash: 0xDECAFBAD1234567, Image: img}
}

func encodeBytes(t *testing.T, cp Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameImage(a, b *memsys.Image) bool {
	pa, pb := a.PageNumbers(), b.PageNumbers()
	if !reflect.DeepEqual(pa, pb) {
		return false
	}
	for _, pn := range pa {
		if !reflect.DeepEqual(a.Page(pn), b.Page(pn)) {
			return false
		}
	}
	return true
}

// TestCkptRoundTrip encodes and decodes images of several shapes and
// demands identical contents and a canonical (byte-identical) re-encode.
func TestCkptRoundTrip(t *testing.T) {
	empty, err := memsys.NewImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	bigPN := map[uint32][]uint32{1<<32 - 1: make([]uint32, memsys.PageWords), 0: make([]uint32, memsys.PageWords)}
	bigImg, err := memsys.NewImage(bigPN)
	if err != nil {
		t.Fatal(err)
	}
	for name, cp := range map[string]Checkpoint{
		"empty":    {ConfigHash: 7, Image: empty},
		"golden":   goldenCheckpoint(t),
		"extremes": {ConfigHash: 0, Image: bigImg},
	} {
		data := encodeBytes(t, cp)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.ConfigHash != cp.ConfigHash {
			t.Errorf("%s: config hash %#x, want %#x", name, got.ConfigHash, cp.ConfigHash)
		}
		if !sameImage(got.Image, cp.Image) {
			t.Errorf("%s: image contents diverged after round trip", name)
		}
		if again := encodeBytes(t, got); !bytes.Equal(again, data) {
			t.Errorf("%s: re-encode is not byte-identical (encoding not canonical)", name)
		}
	}
}

// TestCkptGoldenFile pins the on-disk format: the golden checkpoint must
// encode to exactly the committed testdata bytes, so any format change
// forces an explicit version bump (and a deliberate -update).
func TestCkptGoldenFile(t *testing.T) {
	path := filepath.Join("testdata", "ckpt_v1.golden")
	data := encodeBytes(t, goldenCheckpoint(t))
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("encoding of the golden checkpoint no longer matches %s (%d vs %d bytes): "+
			"the wire format changed — bump ckptVersion and regenerate with -update", path, len(data), len(want))
	}
	cp, err := Decode(want)
	if err != nil {
		t.Fatalf("golden file does not decode: %v", err)
	}
	if cp.ConfigHash != 0xDECAFBAD1234567 {
		t.Errorf("golden config hash %#x", cp.ConfigHash)
	}
	if got := cp.Image.PageNumbers(); !reflect.DeepEqual(got, []uint32{0, 3, 17}) {
		t.Errorf("golden pages %v", got)
	}
}

// TestCkptDecodeRejects walks the corruption taxonomy: every class of
// damage must yield its typed sentinel, never a panic or a silent
// success.
func TestCkptDecodeRejects(t *testing.T) {
	valid := encodeBytes(t, goldenCheckpoint(t))
	flip := func(off int) []byte {
		d := append([]byte(nil), valid...)
		d[off] ^= 0x40
		return d
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:10], ErrTruncated},
		{"bad magic", flip(0), ErrBadMagic},
		{"header bit flip", flip(12), ErrCorrupt}, // config hash byte: header CRC catches it
		{"version skew", flip(4), ErrCorrupt},     // version byte flips are CRC-caught first
		{"truncated body", valid[:len(valid)-5], ErrTruncated},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xFF), ErrCorrupt},
		{"page data flip", flip(ckptHeaderSize + 8 + 100), ErrCorrupt},
		{"page crc flip", flip(ckptHeaderSize + 5), ErrCorrupt},
	}
	for _, c := range cases {
		_, err := Decode(c.data)
		if err == nil {
			t.Errorf("%s: decode accepted damaged input", c.name)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %T is not a *FormatError", c.name, err)
		}
	}

	// A genuine version skew (with a recomputed header CRC) must report
	// ErrVersion, and a page-granularity skew likewise.
	reversion := func(mutate func(d []byte)) []byte {
		d := append([]byte(nil), valid...)
		mutate(d)
		binary.LittleEndian.PutUint32(d[22:], crc32.ChecksumIEEE(d[:22]))
		return d
	}
	badVersion := reversion(func(d []byte) { d[4] = 99 })
	if _, err := Decode(badVersion); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: got %v, want ErrVersion", err)
	}
	badPageWords := reversion(func(d []byte) { d[6] = 1 })
	if _, err := Decode(badPageWords); !errors.Is(err, ErrVersion) {
		t.Errorf("page-granularity skew: got %v, want ErrVersion", err)
	}

	// Out-of-order pages: swap the two page records of a 2-page image.
	two := map[uint32][]uint32{1: make([]uint32, memsys.PageWords), 2: make([]uint32, memsys.PageWords)}
	img, err := memsys.NewImage(two)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeBytes(t, Checkpoint{Image: img})
	swapped := append([]byte(nil), data[:ckptHeaderSize]...)
	swapped = append(swapped, data[ckptHeaderSize+pageRecSize:]...)
	swapped = append(swapped, data[ckptHeaderSize:ckptHeaderSize+pageRecSize]...)
	if _, err := Decode(swapped); !errors.Is(err, ErrCorrupt) {
		t.Errorf("out-of-order pages: got %v, want ErrCorrupt", err)
	}
}

// TestHashConfigBoundaries: part boundaries must not alias (length
// prefixing), and the hash must be order-sensitive.
func TestHashConfigBoundaries(t *testing.T) {
	if HashConfig("ab", "c") == HashConfig("a", "bc") {
		t.Error("part boundaries alias")
	}
	if HashConfig("a", "b") == HashConfig("b", "a") {
		t.Error("hash is order-insensitive")
	}
	if HashConfig() == HashConfig("") {
		t.Error("empty part aliases empty sequence")
	}
}
