package lint

import (
	"testing"

	"repro/internal/lint/load"
)

// benchmarkSuite times the full default suite over the whole module —
// the same in-process run as CI's sopslint lint gate. The stubFacts
// variant nils every fact store, reproducing the pre-facts placeholder
// behaviour; CI's sopslint-bench step runs both and fails if facts
// cost more than 2× the placeholder wall-clock.
func benchmarkSuite(b *testing.B, stubFacts bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh packages per iteration: fact export and the analyzers'
		// engines memoize per package, so a reused load would time the
		// cache, not the analysis.
		pkgs, err := load.Packages("", "repro/...")
		if err != nil {
			b.Fatalf("loading module packages: %v", err)
		}
		if stubFacts {
			for _, p := range pkgs {
				p.Facts = nil
			}
		}
		b.StartTimer()
		if _, err := Run(pkgs, DefaultChecks()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteFacts(b *testing.B) { benchmarkSuite(b, false) }

func BenchmarkSuiteNoFacts(b *testing.B) { benchmarkSuite(b, true) }
