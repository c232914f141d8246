package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/apk"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
)

// TestReportBytesPinned pins SHA-256 digests of the report text
// (report.RenderAll, what the CLI prints) and of every report's JSON
// (Report.JSON) over the 16 golden apps and the canonical-seed corpus,
// with and without dynamic validation. Every app is scanned from its
// encoded container, as the CLI scans it, so the signatures reaching the
// reports are decoded ones. Any byte of drift in the rendering — a
// location's "<key>, stmt N", call-stack indentation, the innermost
// frame without a site, a validation note — or in the JSON fields
// changes a digest. The digests were taken before report rendering
// stopped using fmt and before decoded signatures carried their keys.
func TestReportBytesPinned(t *testing.T) {
	goldens, err := corpus.BuildGoldens()
	if err != nil {
		t.Fatal(err)
	}
	generated, err := corpus.GenerateCorpus(Seed)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*apk.App, len(generated))
	for i, a := range generated {
		apps[i] = a.App
	}
	for _, tc := range []struct {
		name     string
		apps     []*apk.App
		validate bool
		text, js string
	}{
		{"goldens", goldens, false,
			"b6ccd1f7f6dc9608d688e41ad8c9a2b8c764d59d2cb633b160f4c6d728554509",
			"9f999ac8cbb272370927a8b2ef5de7f70eb8f505a6921fe22be3d9eb3aba30cf"},
		{"goldens/validate", goldens, true,
			"4bf2ee81935e3ec418257919643ae58a19ab053e7651df198b15eb0d2ca5d08b",
			"2c27abc7769518a0afeb166846d2f2e8b880c0b0b13804890bcffc4830eaa7be"},
		{"corpus", apps, false,
			"32875d3d4aaad989a5ee831b8e82afcee32964a413264e5ce46622ad612358eb",
			"1bdb928edb58ea34dc77daf060f7ab0056c6852dc32306569fb6d569efb8fdb7"},
		{"corpus/validate", apps, true,
			"57a7ae2832df1ccca7be10365522a1fbc69b4df4e026b4468058a564820a861e",
			"183d13c6b0bd5266d9080ae04e8b222d9b39e67e6d34fc3126f37872fe03641b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			nc := core.NewWithOptions(core.Options{Workers: 1, Validate: tc.validate})
			text, js := sha256.New(), sha256.New()
			for _, app := range tc.apps {
				data, err := apk.Encode(app)
				if err != nil {
					t.Fatal(err)
				}
				res, err := nc.ScanBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Err(); err != nil {
					t.Fatalf("degraded scan: %v", err)
				}
				text.Write([]byte(report.RenderAll(res.Reports)))
				for i := range res.Reports {
					b, err := res.Reports[i].JSON()
					if err != nil {
						t.Fatal(err)
					}
					js.Write(b)
					js.Write([]byte{'\n'})
				}
			}
			if got := hex.EncodeToString(text.Sum(nil)); got != tc.text {
				t.Errorf("RenderAll digest = %s, want %s", got, tc.text)
			}
			if got := hex.EncodeToString(js.Sum(nil)); got != tc.js {
				t.Errorf("JSON digest = %s, want %s", got, tc.js)
			}
		})
	}
}
