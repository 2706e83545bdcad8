package experiments

import (
	"math"
	"slices"
	"testing"

	"paralleltape/internal/cluster"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/workload"
)

// sameClustering reports whether two clusterings are identical, every
// float compared by its bits.
func sameClustering(a, b *cluster.Result) bool {
	if len(a.Clusters) != len(b.Clusters) || !slices.Equal(a.Unreferenced, b.Unreferenced) {
		return false
	}
	for i := range a.Clusters {
		x, y := a.Clusters[i], b.Clusters[i]
		if !slices.Equal(x.Objects, y.Objects) || x.Bytes != y.Bytes ||
			math.Float64bits(x.Prob) != math.Float64bits(y.Prob) ||
			math.Float64bits(x.Cohesion) != math.Float64bits(y.Cohesion) {
			return false
		}
	}
	return true
}

// TestClusterMemoKey checks what the clustering memo keys on: workload
// content and config, not the workload's identity. Equal workloads built
// apart share an entry; a change to one object size, one request
// probability, one request member or one config field gets an entry of
// its own; and every memoized clustering equals a direct cluster.Run.
func TestClusterMemoKey(t *testing.T) {
	cfg := quickCfg()
	gen := func() *model.Workload {
		w, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	def := cluster.DefaultConfig()
	memo := clusterMemo{}
	entry := func(w *model.Workload, ccfg cluster.Config) (*future[*cluster.Result], Run) {
		r := Run{Scheme: placement.ParallelBatch{Clustering: ccfg}, W: w}
		entries, first := memo.claims([]Run{r})
		if len(first) != 1 || entries[0] == nil {
			t.Fatalf("a clustering scheme claimed no entry: %d tasks", len(first))
		}
		return entries[0], r
	}
	base, _ := entry(gen(), def)

	cases := []struct {
		name string
		w    func() *model.Workload
		cfg  cluster.Config
		same bool
	}{
		{"equal workload generated apart", gen, def, true},
		{"one object size", func() *model.Workload {
			w := gen()
			w.Objects[w.Requests[0].Objects[0]].Size++
			return w
		}, def, false},
		{"one request probability", func() *model.Workload {
			w := gen()
			w.Requests[1].Prob = math.Nextafter(w.Requests[1].Prob, 1)
			return w
		}, def, false},
		{"one request member", func() *model.Workload {
			w := gen()
			r := &w.Requests[2]
			for id := model.ObjectID(0); ; id++ {
				if !slices.Contains(r.Objects, id) {
					r.Objects[0] = id
					return w
				}
			}
		}, def, false},
		{"linkage", gen, cluster.Config{Linkage: cluster.Complete}, false},
		{"threshold", gen, cluster.Config{Threshold: 1e-3}, false},
		{"max objects", gen, cluster.Config{MaxObjects: 40}, false},
		{"max bytes", gen, cluster.Config{MaxBytes: cfg.HW.Capacity}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.w()
			e, r := entry(w, tc.cfg)
			if got := e == base; got != tc.same {
				t.Errorf("shares the base entry: %v, want %v", got, tc.same)
			}
			got, err := clustering(e, r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cluster.Run(w, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameClustering(got, want) {
				t.Error("memoized clustering differs from a direct cluster.Run")
			}
		})
	}
	want := 1 // the base entry
	for _, tc := range cases {
		if !tc.same {
			want++
		}
	}
	if len(memo) != want {
		t.Errorf("memo holds %d entries, want %d", len(memo), want)
	}
}

// TestClusterMemoReclustersChangedWorkload checks that a workload changed
// in place between two batches of one memo, as builders change theirs
// with TargetMeanRequestBytes, is clustered again: digests are taken per
// batch, never cached by the workload's pointer.
func TestClusterMemoReclustersChangedWorkload(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 5
	cfg.memo = clusterMemo{}
	w, err := cfg.baseWorkload(0)
	if err != nil {
		t.Fatal(err)
	}
	runs := []Run{{Label: "pb", Scheme: placement.ParallelBatch{M: cfg.M, K: cfg.K}, W: w, HW: cfg.HW}}
	if row := cfg.RunAll(runs)[0]; row.Err != nil {
		t.Fatal(row.Err)
	}
	if _, err := workload.TargetMeanRequestBytes(w, cfg.target(fig6ReqBytes)); err != nil {
		t.Fatal(err)
	}
	got := cfg.RunAll(runs)[0]
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if len(cfg.memo) != 2 {
		t.Errorf("memo holds %d entries after the workload changed, want 2", len(cfg.memo))
	}
	entries, _ := cfg.memo.claims(runs)
	res, err := clustering(entries[0], runs[0])
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cluster.Run(w, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !sameClustering(res, direct) {
		t.Error("the changed workload's memoized clustering differs from a direct cluster.Run")
	}

	fresh := quickCfg()
	fresh.Requests = cfg.Requests
	want := fresh.RunAll([]Run{{Label: "pb", Scheme: runs[0].Scheme, W: w.Clone(), HW: cfg.HW}})[0]
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if got.Stats != want.Stats || got.TapesUsed != want.TapesUsed {
		t.Error("the second batch's row differs from a fresh memo's on the changed workload")
	}
}
