package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"paralleltape/internal/cluster"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
)

// clusterMemo memoizes cluster.Run by workload content and config. All
// shares one memo across its exhibits, so an input that several exhibits
// place (the Figure 6 base workload at α = 0.3 feeds eleven of them) is
// clustered once per sweep; a builder called alone, as ByID calls it,
// gets a memo for its one batch. The memo never outlives the call that
// made it: a process-wide cache would hand a repeated sweep its
// clusterings for free.
//
// Lookups happen on the caller's goroutine, before a batch dispatches
// (claims), so the map needs no lock; the entries are futures the
// workers resolve concurrently.
type clusterMemo map[clusterKey]*clusterEntry

// clusterKey identifies a clustering: the content digest of the workload
// (workloadDigest) and the config. Two separately built workloads with
// equal content share a key.
type clusterKey struct {
	digest [sha256.Size]byte
	cfg    cluster.Config
}

// clusterEntry is one memoized clustering; Once gates the single
// cluster.Run while runs needing the same key wait on it.
type clusterEntry struct {
	once sync.Once
	res  *cluster.Result
	err  error
}

// get returns the clustering of r's workload under its scheme's config,
// computing it on first use. Every workload whose digest leads to this
// entry has the same content, so whichever run gets here first clusters.
func (e *clusterEntry) get(r Run) (*cluster.Result, error) {
	cfg, _ := selfClustering(r.Scheme)
	e.once.Do(func() { e.res, e.err = cluster.Run(r.W, cfg) })
	return e.res, e.err
}

// resolve returns r's scheme with its clustering taken from e, computed
// on first use; a nil e returns the scheme unchanged.
func (e *clusterEntry) resolve(r Run) (placement.Scheme, error) {
	if e == nil {
		return r.Scheme, nil
	}
	res, err := e.get(r)
	if err != nil {
		return nil, err
	}
	return withClustering(r.Scheme, res), nil
}

// claims finds the memo entry of each run whose scheme would cluster its
// workload inside Place. It returns the entries by run (nil where a run
// clusters nothing) and, in input order, the index of the first run
// claiming each distinct entry: the batch's clustering tasks.
//
// Each workload is digested once per call, not once per sweep: builders
// change workloads in place (TargetMeanRequestBytes, ScaleObjectSizes)
// before their runs, so a digest cached by pointer could go stale between
// batches. While a batch runs its workloads do not change.
func (m clusterMemo) claims(runs []Run) (entries []*clusterEntry, first []int) {
	entries = make([]*clusterEntry, len(runs))
	digests := make(map[*model.Workload][sha256.Size]byte)
	for i, r := range runs {
		cfg, ok := selfClustering(r.Scheme)
		if !ok {
			continue
		}
		d, ok := digests[r.W]
		if !ok {
			d = workloadDigest(r.W)
			digests[r.W] = d
		}
		key := clusterKey{digest: d, cfg: cfg}
		e := m[key]
		if e == nil {
			e = &clusterEntry{}
			m[key] = e
		}
		entries[i] = e
		if !slices.Contains(entries[:i], e) {
			first = append(first, i)
		}
	}
	return entries, first
}

// selfClustering returns the clustering config a scheme would run inside
// Place, and whether it runs one: a ParallelBatch that refines by
// clusters, or a ClusterProbability, without a Precomputed result.
func selfClustering(s placement.Scheme) (cluster.Config, bool) {
	switch s := s.(type) {
	case placement.ParallelBatch:
		return s.Clustering, s.Precomputed == nil && !s.NoRefine
	case placement.ClusterProbability:
		return s.Clustering, s.Precomputed == nil
	}
	return cluster.Config{}, false
}

// withClustering returns s with res as its Precomputed clustering.
func withClustering(s placement.Scheme, res *cluster.Result) placement.Scheme {
	switch s := s.(type) {
	case placement.ParallelBatch:
		s.Precomputed = res
		return s
	case placement.ClusterProbability:
		s.Precomputed = res
		return s
	}
	return s
}

// workloadDigest is a SHA-256 digest of everything cluster.Run reads from
// a workload, in order: object IDs and sizes, then request IDs,
// probability bits and member lists, each list prefixed by its length.
func workloadDigest(w *model.Workload) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	put := func(v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, v)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	put(uint64(len(w.Objects)))
	for _, o := range w.Objects {
		put(uint64(o.ID))
		put(uint64(o.Size))
	}
	put(uint64(len(w.Requests)))
	for i := range w.Requests {
		r := &w.Requests[i]
		put(uint64(r.ID))
		put(math.Float64bits(r.Prob))
		put(uint64(len(r.Objects)))
		for _, id := range r.Objects {
			put(uint64(id))
		}
	}
	h.Write(buf)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}
