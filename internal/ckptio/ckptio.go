// Package ckptio gives memsys checkpoints a durable form: a versioned,
// checksummed binary encoding of a memory Image that survives a process
// boundary, plus an append-only record journal (journal.go) sweep
// engines use to persist per-cell results across crashes.
//
// The checkpoint wire format (version 1, everything little-endian):
//
//	header (26 bytes)
//	  [ 0: 4)  magic "PVCK"
//	  [ 4: 6)  format version (1)
//	  [ 6:10)  page words (memsys.PageWords; pins the page granularity)
//	  [10:18)  config hash (HashConfig of the producing configuration)
//	  [18:22)  page count
//	  [22:26)  CRC-32 (IEEE) of bytes [0:22)
//	page records, page numbers strictly increasing (page count of them)
//	  [ 0: 4)  page number
//	  [ 4: 8)  CRC-32 (IEEE) of the data bytes
//	  [ 8: 8+PageWords*4)  page words
//
// Strictly increasing page numbers make the encoding canonical: equal
// images encode to equal bytes, which is what lets a golden file pin the
// format and lets tests demand byte identity after a round trip.
//
// Decoding is strict and total: corrupted, truncated or version-skewed
// input yields a typed *FormatError wrapping one of
// the sentinel errors below — never a panic — and every allocation is
// bounded by the input length (a hostile page count cannot force an
// over-allocation, because the exact input size it implies is checked
// first).
package ckptio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"

	"pva/internal/memsys"
)

// Sentinel errors classifying decode failures; match with errors.Is.
var (
	// ErrBadMagic: the input does not start with the checkpoint (or
	// journal) magic — it is not one of our files at all.
	ErrBadMagic = errors.New("ckptio: bad magic")
	// ErrVersion: the format version or page granularity is not one this
	// build reads.
	ErrVersion = errors.New("ckptio: unsupported format version")
	// ErrTruncated: the input ends before the structure it declares.
	ErrTruncated = errors.New("ckptio: truncated input")
	// ErrCorrupt: a checksum mismatch or structural violation (trailing
	// garbage, out-of-order pages) — the bytes changed after encoding.
	ErrCorrupt = errors.New("ckptio: corrupt input")
)

// FormatError reports where and why a decode failed. It wraps one of the
// sentinel errors, so errors.Is classifies it.
type FormatError struct {
	Off    int64  // byte offset of the violation
	Reason string // human-readable detail
	Err    error  // sentinel classification
}

// Error implements error.
func (e *FormatError) Error() string {
	return fmt.Sprintf("%v at offset %d: %s", e.Err, e.Off, e.Reason)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *FormatError) Unwrap() error { return e.Err }

func formatErr(off int64, sentinel error, format string, args ...any) error {
	return &FormatError{Off: off, Reason: fmt.Sprintf(format, args...), Err: sentinel}
}

const (
	ckptMagic   = "PVCK"
	ckptVersion = 1

	ckptHeaderSize = 26
	pageDataBytes  = memsys.PageWords * 4
	pageRecSize    = 8 + pageDataBytes
)

// Checkpoint is a decoded durable checkpoint: the raw memory image plus
// the hash of the configuration it was captured under.
type Checkpoint struct {
	ConfigHash uint64
	Image      *memsys.Image
}

// HashConfig folds a canonical description of a configuration — any
// sequence of strings, length-prefixed so part boundaries cannot alias —
// into the 64-bit hash stored in checkpoint and journal headers.
func HashConfig(parts ...string) uint64 {
	h := fnv.New64a()
	var lenBuf [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	return h.Sum64()
}

// Encode writes the checkpoint's canonical encoding to w.
func Encode(w io.Writer, cp Checkpoint) error {
	if cp.Image == nil {
		return fmt.Errorf("ckptio: nil image")
	}
	pns := cp.Image.PageNumbers()
	hdr := make([]byte, ckptHeaderSize)
	copy(hdr, ckptMagic)
	binary.LittleEndian.PutUint16(hdr[4:], ckptVersion)
	binary.LittleEndian.PutUint32(hdr[6:], memsys.PageWords)
	binary.LittleEndian.PutUint64(hdr[10:], cp.ConfigHash)
	binary.LittleEndian.PutUint32(hdr[18:], uint32(len(pns)))
	binary.LittleEndian.PutUint32(hdr[22:], crc32.ChecksumIEEE(hdr[:22]))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, pageRecSize)
	for _, pn := range pns {
		page := cp.Image.Page(pn)
		binary.LittleEndian.PutUint32(rec[0:], pn)
		for i, word := range page {
			binary.LittleEndian.PutUint32(rec[8+4*i:], word)
		}
		binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// Decode parses a checkpoint encoding, validating every checksum and
// structural invariant. It never panics on hostile input and never
// allocates more than the input length implies.
func Decode(data []byte) (Checkpoint, error) {
	if len(data) < ckptHeaderSize {
		return Checkpoint{}, formatErr(int64(len(data)), ErrTruncated,
			"header needs %d bytes, have %d", ckptHeaderSize, len(data))
	}
	if string(data[:4]) != ckptMagic {
		return Checkpoint{}, formatErr(0, ErrBadMagic, "want %q, got %q", ckptMagic, data[:4])
	}
	if got, want := binary.LittleEndian.Uint32(data[22:]), crc32.ChecksumIEEE(data[:22]); got != want {
		return Checkpoint{}, formatErr(22, ErrCorrupt, "header CRC %#x, computed %#x", got, want)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != ckptVersion {
		return Checkpoint{}, formatErr(4, ErrVersion, "format version %d, this build reads %d", v, ckptVersion)
	}
	if pw := binary.LittleEndian.Uint32(data[6:]); pw != memsys.PageWords {
		return Checkpoint{}, formatErr(6, ErrVersion, "page granularity %d words, this build uses %d", pw, memsys.PageWords)
	}
	hash := binary.LittleEndian.Uint64(data[10:])
	count := binary.LittleEndian.Uint32(data[18:])
	body := data[ckptHeaderSize:]
	// The exact-length check both detects truncation/trailing garbage and
	// caps the page-map allocation: count is provably <= len(body)/record.
	if need := uint64(count) * pageRecSize; uint64(len(body)) != need {
		sentinel := ErrCorrupt
		reason := "trailing"
		if uint64(len(body)) < need {
			sentinel, reason = ErrTruncated, "missing"
		}
		return Checkpoint{}, formatErr(int64(len(data)), sentinel,
			"%d pages need %d body bytes, have %d (%s bytes)", count, need, len(body), reason)
	}
	pages := make(map[uint32][]uint32, count)
	prev := int64(-1)
	for i := uint32(0); i < count; i++ {
		off := int64(ckptHeaderSize) + int64(i)*pageRecSize
		rec := body[uint64(i)*pageRecSize:][:pageRecSize]
		pn := binary.LittleEndian.Uint32(rec[0:])
		if int64(pn) <= prev {
			return Checkpoint{}, formatErr(off, ErrCorrupt,
				"page %d after page %d (must be strictly increasing)", pn, prev)
		}
		prev = int64(pn)
		if got, want := binary.LittleEndian.Uint32(rec[4:]), crc32.ChecksumIEEE(rec[8:]); got != want {
			return Checkpoint{}, formatErr(off+4, ErrCorrupt, "page %d CRC %#x, computed %#x", pn, got, want)
		}
		page := make([]uint32, memsys.PageWords)
		for j := range page {
			page[j] = binary.LittleEndian.Uint32(rec[8+4*j:])
		}
		pages[pn] = page
	}
	img, err := memsys.NewImage(pages)
	if err != nil {
		return Checkpoint{}, err
	}
	return Checkpoint{ConfigHash: hash, Image: img}, nil
}
