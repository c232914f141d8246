package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/report"
)

// input is one app container the benchmark scans, with the verdict it
// must produce: per-cause warning counts from the corpus generator's
// oracle, and the report text a cache-off scan renders.
type input struct {
	name   string
	data   []byte
	expect map[report.Cause]int
	ref    string // filled by referenceRenders before any timed pass
}

// corpusInputs generates the 285-app corpus for seed and encodes every
// app in memory. With v2 set it also derives the update corpus: v1 with
// one seeded site's SetTimeout flipped in a seeded third of the apps
// (see mutateTimeouts).
func corpusInputs(reg *apimodel.Registry, seed int64, v2 bool) (v1In, v2In []*input, err error) {
	apps, err := corpus.GenerateCorpus(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("generate corpus: %w", err)
	}
	specs := make([]corpus.AppSpec, len(apps))
	for i, a := range apps {
		in, err := encodeInput(reg, a.Name, a.App, a.Spec)
		if err != nil {
			return nil, nil, err
		}
		v1In = append(v1In, in)
		specs[i] = a.Spec
	}
	if !v2 {
		return v1In, nil, nil
	}
	sizes := make([]int, len(v1In))
	for i, in := range v1In {
		sizes[i] = len(in.data)
	}
	changed, err := mutateTimeouts(reg, specs, sizes, rand.New(rand.NewSource(seed+0x5eed)))
	if err != nil {
		return nil, nil, err
	}
	for i, spec := range specs {
		if !changed[i] {
			v2In = append(v2In, v1In[i])
			continue
		}
		app, err := corpus.Build(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("build v2 of %s: %w", spec.Package, err)
		}
		in, err := encodeInput(reg, apps[i].Name, app, spec)
		if err != nil {
			return nil, nil, err
		}
		if string(in.data) == string(v1In[i].data) {
			return nil, nil, fmt.Errorf("v2 of %s encodes identically to v1", spec.Package)
		}
		v2In = append(v2In, in)
	}
	return v1In, v2In, nil
}

// mutateTimeouts flips SetTimeout on one site of len(specs)/3 apps and
// reports which apps changed. Only apps with a site whose library has
// timeout APIs qualify, so every chosen app really changes. The choice is
// stratified by container size: the qualifying apps are sorted by size,
// cut into len(specs)/3 equal strata, and one seeded app is drawn from
// each. So every seed changes the same mix of small and large apps, and
// the seed varies which apps change rather than how much work they are.
func mutateTimeouts(reg *apimodel.Registry, specs []corpus.AppSpec, sizes []int, rng *rand.Rand) ([]bool, error) {
	timeoutSites := func(spec corpus.AppSpec) []int {
		var ks []int
		for k, s := range spec.Sites {
			if reg.Library(s.Lib).HasTimeoutAPIs() {
				ks = append(ks, k)
			}
		}
		return ks
	}
	var cands []int
	for i, spec := range specs {
		if len(timeoutSites(spec)) > 0 {
			cands = append(cands, i)
		}
	}
	want := len(specs) / 3
	if len(cands) < want {
		return nil, fmt.Errorf("only %d apps have a timeout-capable site, want %d", len(cands), want)
	}
	sort.SliceStable(cands, func(a, b int) bool { return sizes[cands[a]] < sizes[cands[b]] })
	changed := make([]bool, len(specs))
	for k := 0; k < want; k++ {
		lo, hi := k*len(cands)/want, (k+1)*len(cands)/want
		i := cands[lo+rng.Intn(hi-lo)]
		ks := timeoutSites(specs[i])
		site := ks[rng.Intn(len(ks))]
		sites := append([]corpus.SiteSpec(nil), specs[i].Sites...)
		sites[site].SetTimeout = !sites[site].SetTimeout
		specs[i].Sites = sites
		changed[i] = true
	}
	return changed, nil
}

func encodeInput(reg *apimodel.Registry, name string, app *apk.App, spec corpus.AppSpec) (*input, error) {
	data, err := apk.Encode(app)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", name, err)
	}
	expect := make(map[report.Cause]int)
	for c, n := range corpus.OracleApp(reg, spec).ToolByCause {
		if n != 0 {
			expect[c] = n
		}
	}
	return &input{name: name, data: data, expect: expect}, nil
}
