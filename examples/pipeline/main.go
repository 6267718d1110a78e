// Pipeline: from raw records to matches in one call — no datasets, no
// covers, no internal packages. Records (a name, an optional relational
// group, an optional gold label) go in; the pipeline blocks them into
// canopy neighborhoods on a sharded worker pool, runs a message-passing
// scheme with a registered matcher, and returns matches plus pairwise
// and B-cubed metrics.
//
// Run with:
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	cem "repro"
)

func main() {
	// Raw records: here synthesized in the paper's DBLP regime, but any
	// []cem.Record works — cem.BasicRecord carries a key (the string to
	// match on), a group (records of one group are coauthors) and a gold
	// label (-1 when unknown).
	records, err := cem.GenerateRecords(cem.DBLP, 0.3, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input:  %d raw records\n", len(records))

	// The pipeline bundles every stage: blocking (a q-gram similarity
	// join), total-cover construction, scheme execution through the
	// Runner, and evaluation.
	pipe, err := cem.NewPipeline(
		cem.WithDatasetName("pipeline-demo"),
		cem.WithMatcher(cem.MatcherMLN),
		cem.WithScheme(cem.SchemeSMP),
		cem.WithRunnerOptions(cem.WithParallelism(runtime.NumCPU())),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pipe.Run(context.Background(), records)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("cover:  %s\n", res.Experiment.Cover.ComputeStats())
	fmt.Printf("stages: blocking %v, matching %v\n", res.BlockingTime, res.MatchingTime)
	fmt.Printf("output: %d matches\n\n", res.Matches.Len())
	fmt.Printf("pairwise  %v\n", res.Report.PRF)
	fmt.Printf("B-cubed   %v\n", *res.BCubed)

	// A handcrafted, unlabeled corpus works the same way (the pipeline
	// just skips the metrics): two papers by the same trio, once with
	// full names and once abbreviated. No single pair is matchable on
	// its own — only the jointly-supporting clique of all three pairs
	// is, which is exactly what maximal message passing recovers
	// (Figure 2 of the paper).
	tiny := []cem.Record{
		cem.BasicRecord{Key: "Vibhor Rastogi", Group: 1, Gold: -1},
		cem.BasicRecord{Key: "Nilesh Dalvi", Group: 1, Gold: -1},
		cem.BasicRecord{Key: "Minos Garofalakis", Group: 1, Gold: -1},
		cem.BasicRecord{Key: "V. Rastogi", Group: 2, Gold: -1},
		cem.BasicRecord{Key: "N. Dalvi", Group: 2, Gold: -1},
		cem.BasicRecord{Key: "M. Garofalakis", Group: 2, Gold: -1},
	}
	mmp, err := cem.NewPipeline(cem.WithScheme(cem.SchemeMMP))
	if err != nil {
		log.Fatal(err)
	}
	tinyRes, err := mmp.Run(context.Background(), tiny)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntiny corpus under MMP: %d records -> %d matches (labeled=%v)\n",
		tinyRes.Records, tinyRes.Matches.Len(), tinyRes.Labeled)
	for _, p := range tinyRes.Matches.Sorted() {
		fmt.Printf("  %q == %q\n", tiny[p.A].RecordKey(), tiny[p.B].RecordKey())
	}
}
