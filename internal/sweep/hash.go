package sweep

// Content-hash cell identity. Every grid cell gets a canonical SHA-256
// over its resolved parameters — the scenario's workload blob plus the
// cell's arrival, availability, scheduler and appmodel specs, the node
// count and the offered load (internal/scenario's canonical
// serialization); federated cells additionally cover the member-cluster
// topology and the cell's admission and routing policy specs. The hash,
// not the cell's position in the grid, is the cell's identity:
//
//   - Replication seeds derive from (hash, replication index), so
//     editing the grid — inserting a load, reordering an axis — never
//     re-seeds the cells that did not change.
//   - Two cells with identical resolved parameters hash identically, so
//     they share one unit of the sweep plan and their replications run
//     once (content-hash dedup).
//   - Checkpoints, shard artifacts included, key their entries by hash, which
//     makes resumes survive grid edits and lets independently-run shards
//     merge into one consistent report.
//
// Axis blobs are serialized once per axis entry and reused across the
// whole grid, so hashing a cell is two buffer appends and one SHA-256 —
// cheap enough to run unconditionally.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"dpsim/internal/rng"
	"dpsim/internal/scenario"
)

// CellHash is the canonical content identity of one grid cell.
type CellHash [sha256.Size]byte

// String returns the full lowercase-hex digest — the key format of
// checkpoint files.
func (h CellHash) String() string { return hex.EncodeToString(h[:]) }

// Short is the first 12 hex digits of the digest: dpssweep's cell
// column, and a -cell prefix that selects one cell of any shipped grid.
func (h CellHash) Short() string { return hex.EncodeToString(h[:6]) }

// Seed64 folds the first 8 digest bytes into the seed domain; runSeed
// expands it per replication.
func (h CellHash) Seed64() uint64 { return binary.BigEndian.Uint64(h[:8]) }

// ShardOf maps the cell onto one of n shards. The partition uses digest
// bytes disjoint from Seed64's, so shard membership and seeding stay
// uncorrelated; n <= 1 puts every cell in shard 0.
func (h CellHash) ShardOf(n int) int {
	if n <= 1 {
		return 0
	}
	return int(binary.BigEndian.Uint64(h[8:16]) % uint64(n))
}

// appendSection length-prefixes and appends one canonical blob, so
// adjacent sections can never alias ("ab"+"c" vs "a"+"bc").
func appendSection(buf, blob []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(blob)))
	return append(buf, blob...)
}

// CellHashes computes every cell's content hash in Cells() order. Axis
// blobs are serialized once and shared, so the per-cell cost is
// appending to a reused buffer and one SHA-256.
func CellHashes(spec *scenario.Spec, cells []Cell) []CellHash {
	workload := spec.CanonicalWorkload()
	arrivals := make([][]byte, len(spec.Arrivals))
	for i := range arrivals {
		arrivals[i] = spec.CanonicalArrival(i)
	}
	avails := map[int][]byte{-1: spec.CanonicalAvailability(-1)}
	for i := range spec.Availability {
		avails[i] = spec.CanonicalAvailability(i)
	}
	// In a federated grid the scheduler axis collapses to the pseudo-entry
	// index -1: the real per-cluster schedulers (and app models and
	// availability) are covered by the federation topology section below,
	// so the sentinel blob only keeps section alignment stable.
	scheds := map[int][]byte{-1: []byte("federated")}
	for i := range spec.Schedulers {
		scheds[i] = spec.CanonicalScheduler(i)
	}
	models := map[int][]byte{-1: spec.CanonicalAppModel(-1)}
	for i := range spec.AppModels {
		models[i] = spec.CanonicalAppModel(i)
	}

	// Federation sections are appended only for federated scenarios, so
	// every legacy cell's hash preimage stays byte-identical: seeds, dedup
	// groups, checkpoints and shard artifacts of existing sweeps survive
	// this axis unchanged. The topology blob is shared by all cells;
	// admission and routing are separate per-axis sections, so editing one
	// policy list never re-seeds cells of the other.
	var fedBlob []byte
	var admBlobs, rtBlobs [][]byte
	if f := spec.Federation; f != nil {
		fedBlob = spec.CanonicalFederation()
		admBlobs = make([][]byte, len(f.Admissions))
		for i := range admBlobs {
			admBlobs[i] = spec.CanonicalAdmission(i)
		}
		rtBlobs = make([][]byte, len(f.Routings))
		for i := range rtBlobs {
			rtBlobs[i] = spec.CanonicalRouting(i)
		}
	}

	hashes := make([]CellHash, len(cells))
	var buf []byte
	for i, c := range cells {
		buf = buf[:0]
		buf = appendSection(buf, workload)
		buf = appendSection(buf, arrivals[c.ArrivalIdx])
		buf = appendSection(buf, avails[c.AvailIdx])
		buf = binary.AppendUvarint(buf, uint64(c.Nodes))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.Load))
		buf = appendSection(buf, scheds[c.SchedulerIdx])
		buf = appendSection(buf, models[c.AppModelIdx])
		if spec.Federation != nil {
			buf = appendSection(buf, fedBlob)
			buf = appendSection(buf, admBlobs[c.AdmissionIdx])
			buf = appendSection(buf, rtBlobs[c.RoutingIdx])
		}
		hashes[i] = sha256.Sum256(buf)
	}
	return hashes
}

// runSeed derives the seed of one replication as a pure function of the
// cell's content hash (which already covers the master seed) and the
// replication index: results depend on what a cell *is*, never on where
// it sits in the grid or in which process it runs. Two splitmix rounds
// decorrelate neighboring replications.
func runSeed(h CellHash, rep int) uint64 {
	s := rng.New(h.Seed64() ^ (uint64(rep+1) * 0x9e3779b97f4a7c15)).Uint64()
	return rng.New(s ^ 0xbf58476d1ce4e5b9).Uint64()
}
