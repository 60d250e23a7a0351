package ckptio

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"pva/internal/memsys"
)

// typedOrNil fails the test unless err is nil or classified by one of
// the package's sentinels — the decoder's whole contract under hostile
// input.
func typedOrNil(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	for _, s := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt} {
		if errors.Is(err, s) {
			return
		}
	}
	t.Fatalf("untyped decode error: %v", err)
}

// FuzzCheckpointDecode feeds the checkpoint decoder truncated,
// bit-flipped, and outright hostile inputs: it must return typed errors,
// never panic, and never allocate beyond what the input length implies
// (a hostile page count is length-checked before the page map is sized).
// Accepted inputs must re-encode canonically.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed with valid encodings of several shapes plus mutations.
	addImage := func(hash uint64, pns ...uint32) {
		pages := map[uint32][]uint32{}
		for _, pn := range pns {
			p := make([]uint32, memsys.PageWords)
			for i := range p {
				p[i] = pn ^ uint32(i)
			}
			pages[pn] = p
		}
		img, err := memsys.NewImage(pages)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, Checkpoint{ConfigHash: hash, Image: img}); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0x80
		f.Add(flipped)
	}
	addImage(0)
	addImage(42, 0)
	addImage(1<<63, 1, 5, 1<<31)
	// A header claiming 4 billion pages with no body: must be rejected
	// as truncated without allocating a 4-billion-entry map.
	huge := append([]byte(nil), []byte("PVCK\x01\x00")...)
	huge = append(huge, make([]byte, ckptHeaderSize-len(huge))...)
	f.Add(huge)
	f.Add([]byte("PVJL"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Decode(data)
		typedOrNil(t, err)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, cp); err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("accepted input is not the canonical encoding of its own decode")
		}
	})
}

// FuzzJournalScan feeds the journal scanner hostile bytes: header damage
// must be a typed error, frame damage must terminate the scan cleanly
// (torn tail), and no input may panic or over-allocate (payload lengths
// are bounded by the remaining input before slicing).
func FuzzJournalScan(f *testing.F) {
	valid := func(recs ...Record) []byte {
		dir := f.TempDir()
		path := dir + "/j"
		j, err := CreateJournal(path, 0xFEED, uint32(len(recs)))
		if err != nil {
			f.Fatal(err)
		}
		j.NoSync = true
		for _, r := range recs {
			if err := j.Append(r.Kind, r.Payload); err != nil {
				f.Fatal(err)
			}
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(valid())
	f.Add(valid(Record{Kind: 1, Payload: []byte(`{"i":0}`)}))
	long := valid(Record{Kind: 1, Payload: bytes.Repeat([]byte("x"), 1000)}, Record{Kind: 2})
	f.Add(long)
	f.Add(long[:len(long)-3])
	// A frame claiming a 4 GiB payload: scan must stop at it, not slice
	// past the input.
	lying := append(valid(), 1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	f.Add(lying)
	f.Add([]byte("PVCK"))

	f.Fuzz(func(t *testing.T, data []byte) {
		info, recs, err := ScanJournalBytes(data)
		if err != nil {
			typedOrNil(t, err)
			return
		}
		// The valid prefix plus the torn tail must tile the input.
		used := journalHeaderSize
		for _, r := range recs {
			used += recHeaderSize + len(r.Payload)
		}
		if used+info.TornBytes != len(data) {
			t.Fatalf("prefix %d + torn %d != input %d", used, info.TornBytes, len(data))
		}
	})
}
