package experiments

// Study is one entry of the evaluation: the name ndbench -exp selects it
// by, the paper claim or future-work item it tests, and the run that
// produces its tables.
type Study struct {
	Name  string
	Claim string
	Run   func(Config) ([]Table, error)
}

// amplified is said of every study whose nondeterministic runs enable the
// race amplifier, because their variance numbers depend on it.
const amplified = " NE runs are amplified: injected yields stand in for the scheduling noise of the paper's 16 physical cores."

// Studies returns the evaluation registry in report order: the paper's
// own tables and figure first, then the extension studies.
func Studies() []Study {
	return []Study{
		{"table1", "Table I: the evaluated graphs fall into two shape classes, heavy-tailed web/social and quasi-regular cage15.",
			one("Table I: real-world graphs (paper) and synthetic analogs", TableI)},
		{"fig3", "Fig. 3: architecture-support atomicity is fastest, compiler atomics close behind, explicit locks slowest; NE scales with cores and DE does not (only thread counts up to the host's nproc can show it).",
			one("Fig. 3: computing times (graph loading excluded)", Fig3)},
		{"variance", "Tables II/III (Section V-C): NE difference degrees are far below DE's; a smaller ε gives a larger difference degree." + amplified,
			func(cfg Config) ([]Table, error) {
				ii, iii, err := VarianceTables(cfg)
				return []Table{
					{"Table II: difference degrees within one configuration (web-google analog)", ii},
					{"Table III: difference degrees across configurations (web-google analog)", iii},
				}, err
			}},
		{"conflicts", "Sections III-IV: fixed-point iterations conflict read-write only, traversals add write-write; each algorithm gets its theorem.",
			one("Conflict census: potential RW/WW conflict edges and eligibility verdicts", ConflictCensus)},
		{"iters", "Future work 3: the asynchronous model needs no more iterations than the synchronous one.",
			one("Iterations to convergence by execution model", ConvergenceSpeed)},
		{"topk", "Section V-C: the top-ranked pages are identical across configurations." + amplified,
			func(cfg Config) ([]Table, error) {
				rows, err := TopKAgreementStudy(cfg, []int{10, 100, 1000})
				return []Table{{"Top-K rank agreement, DE vs 16NE PageRank", rows}}, err
			}},
		{"ablate", "Fig. 1 system model: dispatch policy and label order change the scheduling cost; the amplifier changes interleavings but not results.",
			func(cfg Config) ([]Table, error) {
				dispatch, err := DispatchAblation(cfg)
				if err != nil {
					return nil, err
				}
				labels, err := LabelOrderAblation(cfg)
				if err != nil {
					return nil, err
				}
				amp, err := AmplifierAblation(cfg)
				return []Table{
					{"Ablations: dispatch policy and label order (web-berkstan analog, 4 threads)", append(dispatch, labels...)},
					{"Ablation: race amplifier (observed conflicts, WCC on web-google analog)", amp},
				}, err
			}},
		{"fpvar", "Section V-C caveat: the variance law may not carry to other fixed-point algorithms; SpMV is measured beside PageRank." + amplified,
			one("Fixed-point variance, PageRank vs SpMV (16NE, web-google analog)", FixedPointVariance)},
		{"precision", "Future work 2: the error range of NE PageRank against the true fixed point scales with ε." + amplified,
			one("Error of nondeterministic PageRank vs the true fixed point", PrecisionStudy)},
		{"divergence", "Section II: a racy commit propagates forward (≻) to later updates, never backward (≺)." + amplified,
			one("Execution-path divergence of repeated nondeterministic runs", DivergenceStudy)},
		{"hybrid", "Future work 1 (push mode): choosing push or pull per iteration, against pushing every iteration on the same engine.",
			one("Direction-optimizing (push/pull) hybrid engine: P = push, L = pull per iteration", HybridStudy)},
		{"nosync", "Future work 4: barrier-free execution of eligible algorithms, timed against the barrier tiers.",
			one("Barrier-free work-stealing (no-sync) tier: BFS scaling, best of 3", NoSyncStudy)},
		{"staleness", "Theorem 2 without barriers: read staleness and path drift grow with workers while the fixed point stays byte-identical.",
			one("Staleness and drift of work-stealing WCC (delays in elapsed updates)", StalenessStudy)},
		{"netdist", "Future work (distributed systems): monotone results survive real transport, a worker kill and a partition.",
			one("Real-transport distributed execution (TCP workers)", NetDistScaling)},
	}
}

// one adapts a study that produces a single table.
func one[R any](title string, run func(Config) ([]R, error)) func(Config) ([]Table, error) {
	return func(cfg Config) ([]Table, error) {
		rows, err := run(cfg)
		return []Table{{title, rows}}, err
	}
}
