// Package fault is the deterministic fault-injection layer of the
// simulator: a seed-driven Plan describing which faults to model, a
// stateless Injector that decides each potential fault site by hashing
// its coordinates (so two runs of the same plan inject byte-identical
// fault sequences regardless of evaluation order), a SEC-DED ECC codec
// for the SDRAM read path (ecc.go), and the typed error taxonomy the
// rest of the pipeline reports instead of panicking (errors.go).
//
// The paper's prototype assumes perfect SDRAM — refresh is disabled and
// every part behaves; a production memory system does not get that
// luxury. The plan models the faults real parts exhibit:
//
//   - transient single-bit flips on the read path, corrected in place by
//     the SEC-DED code (zero latency cost — correction is combinational
//     in hardware — so a corrected run is bit-identical to a clean one);
//   - double-bit flips, which SEC-DED detects but cannot correct: the
//     device replays the array read after a bounded backoff, and a read
//     that stays dirty past MaxRetries surfaces an UncorrectableError;
//   - dropped/NACKed vector-bus broadcasts, recovered by the front end's
//     bounded retry-with-backoff;
//   - hard bank faults (DeadBanks): the bank controller is taken
//     offline and the channel dispatcher re-routes its subvector through
//     an enumerated serial fallback path.
package fault

import (
	"fmt"
	"sort"
)

// Default retry bounds, used when the plan leaves them zero.
const (
	// DefaultMaxRetries bounds both the device-level ECC replay and the
	// front end's broadcast retransmission.
	DefaultMaxRetries = 8
	// DefaultBackoff is the base backoff in cycles; attempt k waits
	// Backoff << (k-1) cycles, capped at MaxBackoffShift doublings.
	DefaultBackoff = 4
	// MaxBackoffShift caps the exponential backoff growth.
	MaxBackoffShift = 10
)

// Plan describes one run's fault injection. The zero value disables
// every fault path and is guaranteed zero-cost: no injector is built and
// the simulation is bit-identical to a build without this package.
type Plan struct {
	// Seed drives every injection decision. Two runs with identical
	// plans (and identical traffic) observe identical faults and report
	// identical fault counters.
	Seed uint64

	// BitFlipRate is the per-SDRAM-read probability of a transient
	// single-bit flip in the 39-bit codeword, corrected by SEC-DED.
	BitFlipRate float64
	// DoubleFlipRate is the per-read probability of a double-bit flip:
	// detected but uncorrectable, recovered by device-level replay.
	DoubleFlipRate float64
	// DropRate is the per-broadcast probability that a vector-bus
	// command is NACKed and must be retransmitted by the front end.
	DropRate float64

	// DeadBanks lists hard-faulted bank controllers as flat indices
	// channel*Banks + bank. Their subvectors are serviced by the channel
	// dispatcher's serial fallback path.
	DeadBanks []uint32

	// MaxRetries bounds both retry paths: 0 means DefaultMaxRetries,
	// negative means unlimited (useful to force a livelock under a
	// watchdog in tests).
	MaxRetries int
	// Backoff is the base retry backoff in cycles (0: DefaultBackoff).
	Backoff uint64
}

// Active reports whether the plan injects anything at all.
func (p Plan) Active() bool {
	return p.BitFlipRate > 0 || p.DoubleFlipRate > 0 || p.DropRate > 0 || len(p.DeadBanks) > 0
}

// Validate checks the plan against a system of channels x banks bank
// controllers.
func (p Plan) Validate(channels, banks uint32) error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"BitFlipRate", p.BitFlipRate},
		{"DoubleFlipRate", p.DoubleFlipRate},
		{"DropRate", p.DropRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	total := channels * banks
	for _, b := range p.DeadBanks {
		if b >= total {
			return fmt.Errorf("fault: dead bank %d out of range (system has %d bank controllers)", b, total)
		}
	}
	return nil
}

// ResolvedMaxRetries returns the effective retry bound: -1 for
// unlimited.
func (p Plan) ResolvedMaxRetries() int {
	switch {
	case p.MaxRetries < 0:
		return -1
	case p.MaxRetries == 0:
		return DefaultMaxRetries
	default:
		return p.MaxRetries
	}
}

// ResolvedBackoff returns the effective base backoff in cycles.
func (p Plan) ResolvedBackoff() uint64 {
	if p.Backoff == 0 {
		return DefaultBackoff
	}
	return p.Backoff
}

// BackoffDelay returns the wait before retry attempt (1-based),
// exponential with a capped shift.
func (p Plan) BackoffDelay(attempt int) uint64 {
	if attempt < 1 {
		attempt = 1
	}
	shift := uint(attempt - 1)
	if shift > MaxBackoffShift {
		shift = MaxBackoffShift
	}
	return p.ResolvedBackoff() << shift
}

// DeadSet returns the dead banks as a sorted, deduplicated slice.
func (p Plan) DeadSet() []uint32 {
	if len(p.DeadBanks) == 0 {
		return nil
	}
	out := append([]uint32(nil), p.DeadBanks...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, b := range out {
		if i == 0 || b != out[n-1] {
			out[n] = b
			n++
		}
	}
	return out[:n]
}

// Injector makes the plan's injection decisions. It is stateless: every
// decision hashes the fault site's coordinates with the seed, so the
// order in which sites are evaluated — or whether some are skipped by
// the event-driven front end — cannot change any outcome.
type Injector struct {
	plan Plan
}

// NewInjector returns an injector for the plan, or nil when the plan
// injects nothing (callers gate every fault path on a nil check, which
// keeps the disabled case zero-cost).
func NewInjector(p Plan) *Injector {
	if !p.Active() {
		return nil
	}
	return &Injector{plan: p}
}

// Site kinds salt the hash so distinct decision classes at the same
// coordinates stay independent.
const (
	siteReadFault     = 0x9e3779b97f4a7c15
	siteDropBroadcast = 0xbf58476d1ce4e5b9
	siteBitPick       = 0x94d049bb133111eb
)

// splitmix64 is the finalizer of the SplitMix64 generator: a strong
// 64-bit mixer used here as a keyed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// mix hashes the seed with up to four site words.
func (in *Injector) mix(kind, a, b, c, d uint64) uint64 {
	h := splitmix64(in.plan.Seed ^ kind)
	h = splitmix64(h ^ a)
	h = splitmix64(h ^ b)
	h = splitmix64(h ^ c)
	h = splitmix64(h ^ d)
	return h
}

// uniform maps a hash to [0, 1).
func uniform(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// ReadFault decides the fate of one SDRAM array read: the returned
// slice holds the codeword bit positions (0..38) to flip — empty for a
// clean read, one position for a correctable transient, two for an
// uncorrectable double flip. attempt distinguishes device-level
// replays of the same read.
func (in *Injector) ReadFault(bank uint32, cycle uint64, addr uint32, attempt int) []uint {
	h := in.mix(siteReadFault, uint64(bank), cycle, uint64(addr), uint64(attempt))
	u := uniform(h)
	switch {
	case u < in.plan.DoubleFlipRate:
		hb := in.mix(siteBitPick, uint64(bank), cycle, uint64(addr), uint64(attempt))
		b1 := uint(hb % CodeBits)
		b2 := uint(hb >> 16 % (CodeBits - 1))
		if b2 >= b1 {
			b2++
		}
		return []uint{b1, b2}
	case u < in.plan.DoubleFlipRate+in.plan.BitFlipRate:
		hb := in.mix(siteBitPick, uint64(bank), cycle, uint64(addr), uint64(attempt))
		return []uint{uint(hb % CodeBits)}
	default:
		return nil
	}
}

// DropBroadcast decides whether the attempt-th transmission of trace
// command cmd on channel ch is NACKed.
func (in *Injector) DropBroadcast(ch uint32, cmd, attempt int) bool {
	if in.plan.DropRate <= 0 {
		return false
	}
	h := in.mix(siteDropBroadcast, uint64(ch), uint64(cmd), uint64(attempt), 0)
	return uniform(h) < in.plan.DropRate
}

// MaxRetries returns the plan's effective retry bound (-1: unlimited).
func (in *Injector) MaxRetries() int { return in.plan.ResolvedMaxRetries() }

// BackoffDelay returns the plan's wait before retry attempt (1-based).
func (in *Injector) BackoffDelay(attempt int) uint64 { return in.plan.BackoffDelay(attempt) }
