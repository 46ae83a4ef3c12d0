package sim_test

import (
	"fmt"
	"testing"

	"dirsim/internal/cache"
	"dirsim/internal/core"
	"dirsim/internal/directory"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// goldenTraces are the workloads the golden fingerprints were taken on:
// the three standard traces at the paper's 4 CPUs and POPS at 16.
func goldenTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	cfgs := append(workload.StandardConfigs(4, 30_000), workload.POPSConfig(16, 30_000))
	out := make([]*trace.Trace, len(cfgs))
	for i, cfg := range cfgs {
		tr, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tr
	}
	return out
}

// goldenCores builds every engine the golden table pins: the fixed
// registry schemes, the parameterized limited-pointer schemes, the
// finite-cache full map and the coarse vector.
func goldenCores(t *testing.T, cpus int) map[string]core.Protocol {
	t.Helper()
	ps := map[string]core.Protocol{}
	names := append(core.Schemes(), "dir2nb", "dir4nb", "dir1b", "dir4b")
	for _, name := range names {
		p, err := core.NewByName(name, cpus)
		if err != nil {
			t.Fatal(err)
		}
		ps[name] = p
	}
	fin, err := core.NewFiniteDirNNB(cpus, cache.Config{SizeBytes: 4096, Assoc: 2, HashIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	ps["finitedirnnb"] = fin
	ps["dircv"] = directory.NewCoarseVector(cpus)
	return ps
}

// TestGoldenFingerprints pins the exact result of every protocol core on
// fixed traces: event counts, histograms and bus tallies through
// sim.Result.Fingerprint, plus the finite-cache miss causes and the
// coarse vector's message counts. Any change to a core's state handling
// that alters a single classification fails here.
func TestGoldenFingerprints(t *testing.T) {
	got := map[string]string{}
	for _, tr := range goldenTraces(t) {
		for name, p := range goldenCores(t, tr.CPUs) {
			r, err := sim.Simulate(p, tr.Iterator(), sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			v := fmt.Sprintf("%016x", r.Fingerprint())
			switch q := p.(type) {
			case interface{ Counters() (int64, int64, int64) }:
				cold, coh, capm := q.Counters()
				v += fmt.Sprintf(" %d/%d/%d", cold, coh, capm)
			case *directory.CoarseVector:
				v += fmt.Sprintf(" %d/%d", q.Useful, q.Wasted)
			}
			got[fmt.Sprintf("%s/%s%d", name, tr.Name, tr.CPUs)] = v
		}
	}
	for key, v := range got {
		want, ok := goldenResults[key]
		if !ok {
			t.Errorf("%q: no golden value (got %q)", key, v)
			continue
		}
		if v != want {
			t.Errorf("%s: got %s, want %s", key, v, want)
		}
	}
	if len(got) != len(goldenResults) {
		t.Errorf("simulated %d core/trace pairs, golden table has %d", len(got), len(goldenResults))
	}
}

// goldenResults maps core/trace to the fingerprint in hex, followed for
// FiniteDirNNB by cold/coherence/capacity misses and for DirCV by
// useful/wasted invalidation messages.
var goldenResults = map[string]string{
	"berkeley/pero4":      "de12abf50e8aecc1",
	"berkeley/pops16":     "3cefdf5cbf559164",
	"berkeley/pops4":      "6e52cb24d91b4269",
	"berkeley/thor4":      "f2c99c302efe7fbf",
	"dir0b/pero4":         "eca008c4356433ad",
	"dir0b/pops16":        "cf86b1b072d89075",
	"dir0b/pops4":         "682a967256714d4c",
	"dir0b/thor4":         "3a3d95a037b75895",
	"dir1b/pero4":         "87cf9db77b8b2526",
	"dir1b/pops16":        "7a45b3dcd9f53a5e",
	"dir1b/pops4":         "b5516ec1a3d6f7c9",
	"dir1b/thor4":         "5a4eb94c04bcdc46",
	"dir1nb/pero4":        "82ee12d73ca2db29",
	"dir1nb/pops16":       "86cbf4e8a61791e5",
	"dir1nb/pops4":        "7e50911eee45345e",
	"dir1nb/thor4":        "a867ce4357037078",
	"dir2nb/pero4":        "1ec0e3099b29f298",
	"dir2nb/pops16":       "d644d99ae6477614",
	"dir2nb/pops4":        "6fd9b5ca2ecfa629",
	"dir2nb/thor4":        "063cf6424be55a82",
	"dir4b/pero4":         "e692db3261509262",
	"dir4b/pops16":        "52dd4b1f95f7241f",
	"dir4b/pops4":         "45591e3f9a0ca857",
	"dir4b/thor4":         "c4897002c41169ba",
	"dir4nb/pero4":        "e12d4189550eba1d",
	"dir4nb/pops16":       "16129fd7e28ca860",
	"dir4nb/pops4":        "bc69eac1403e5fa8",
	"dir4nb/thor4":        "196467aaf29e2b0d",
	"dircv/pero4":         "b8a48121dfbfaada 47/33",
	"dircv/pops16":        "cba97a463822bace 199/143",
	"dircv/pops4":         "500e927727191283 276/239",
	"dircv/thor4":         "449c57ad29befb23 413/220",
	"dirnnb/pero4":        "fec375fe567bb46f",
	"dirnnb/pops16":       "5990c6d576cbe381",
	"dirnnb/pops4":        "3f5d0502258284c2",
	"dirnnb/thor4":        "4aa09d72e4523ea3",
	"dragon/pero4":        "dfb93711d101e020",
	"dragon/pops16":       "fac436ea57054dfd",
	"dragon/pops4":        "e59bc16c4c9bfc08",
	"dragon/thor4":        "a298707aeaa09281",
	"finitedirnnb/pero4":  "4aaf0326c78cf847 318/23/70",
	"finitedirnnb/pops16": "8903fd347100f786 78/166/0",
	"finitedirnnb/pops4":  "67c8bc7023592e43 167/216/8",
	"finitedirnnb/thor4":  "47693d4f94c6a443 332/346/28",
	"firefly/pero4":       "cd2dfe8f9346de81",
	"firefly/pops16":      "fb05dd17986f50e3",
	"firefly/pops4":       "1e35cb681153317f",
	"firefly/thor4":       "d3f9016563ec7a79",
	"illinois/pero4":      "17c6a6d420f02e19",
	"illinois/pops16":     "270d974fdd76e767",
	"illinois/pops4":      "281972cedcc70a20",
	"illinois/thor4":      "03e96245dc7328b5",
	"mesi/pero4":          "17c6a6d420f02e19",
	"mesi/pops16":         "270d974fdd76e767",
	"mesi/pops4":          "281972cedcc70a20",
	"mesi/thor4":          "03e96245dc7328b5",
	"wti/pero4":           "2fa74424a3ec3413",
	"wti/pops16":          "6761174a788230c3",
	"wti/pops4":           "1a2c1f1b2a8b08b1",
	"wti/thor4":           "1695ca857487f3df",
	"yenfu/pero4":         "090bbe4f186a91b6",
	"yenfu/pops16":        "f93459c59a0466da",
	"yenfu/pops4":         "ce1804560223c78b",
	"yenfu/thor4":         "f7170a960a38534e",
}
