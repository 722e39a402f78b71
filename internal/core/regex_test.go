package core

import (
	"context"
	"fmt"
	"testing"

	"rottnest/internal/component"
	"rottnest/internal/workload"
)

func TestRequiredLiteral(t *testing.T) {
	cases := []struct {
		pattern string
		want    string
	}{
		{`ERROR`, "ERROR"},
		{`ERROR \d+ at`, "ERROR "},
		{`conn(ection)? reset`, " reset"},
		{`user-[0-9a-f]{8} logged in`, " logged in"},
		{`(payment failed)+`, "payment failed"},
		{`foo|bar`, ""},   // alternation: no required literal
		{`(?i)error`, ""}, // case folding: bytes not exact
		{`\d+`, ""},       // no literal at all
		{`a*`, ""},        // optional: not required
		{`x`, "x"},        // single byte
		{`prefix.{0,5}suffix-longer`, "suffix-longer"},
	}
	for _, tc := range cases {
		got, err := requiredLiteral(tc.pattern)
		if err != nil {
			t.Fatalf("%q: %v", tc.pattern, err)
		}
		if string(got) != tc.want {
			t.Fatalf("requiredLiteral(%q) = %q, want %q", tc.pattern, got, tc.want)
		}
	}
	if _, err := requiredLiteral(`(`); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestRegexSearchUsesIndexViaLiteral(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, textSchema, Config{})
	gen := workload.NewTextGen(workload.DefaultTextConfig(50))
	docs := gen.Docs(800)
	docs[123] = "ERROR 4021 at checkout stage"
	docs[456] = "ERROR 13 at login stage"
	docs[700] = "errors at no stage" // must NOT match the anchored pattern
	e.appendDocs(t, docs)
	if _, err := e.cli.Index(ctx, "body", component.KindFM); err != nil {
		t.Fatal(err)
	}

	res, err := e.cli.Search(ctx, Query{Column: "body", Regex: `ERROR \d+ at \w+ stage`, K: 0, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %d: %v", len(res.Matches), res.Matches)
	}
	// Answered by the index (literal "ERROR " drove the probe), not a
	// scan.
	if res.Stats.FilesScanned != 0 || res.Stats.IndexFiles != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestRegexWithoutLiteralFallsBackToScan(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, textSchema, Config{})
	gen := workload.NewTextGen(workload.DefaultTextConfig(51))
	docs := gen.Docs(300)
	docs[50] = "alpha999omega"
	e.appendDocs(t, docs)
	if _, err := e.cli.Index(ctx, "body", component.KindFM); err != nil {
		t.Fatal(err)
	}
	// Top-level alternation has no required literal: scan fallback.
	res, err := e.cli.Search(ctx, Query{Column: "body", Regex: `alpha999omega|beta888psi`, K: 0, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %d", len(res.Matches))
	}
	if res.Stats.FilesScanned == 0 {
		t.Fatalf("expected scan fallback, stats = %+v", res.Stats)
	}
}

func TestRegexValidation(t *testing.T) {
	ctx := context.Background()
	e := newEnv(t, textSchema, Config{})
	e.appendDocs(t, []string{"x"})
	if _, err := e.cli.Search(ctx, Query{Column: "body", Regex: `(`, K: 1, Snapshot: -1}); err == nil {
		t.Fatal("invalid regex accepted")
	}
	// Regex + Substring together is ambiguous.
	if _, err := e.cli.Search(ctx, Query{Column: "body", Regex: `a`, Substring: []byte("b"), K: 1, Snapshot: -1}); err == nil {
		t.Fatal("two predicates accepted")
	}
}

func TestRegexNeverMissesVsScan(t *testing.T) {
	// Property-style check: for each planted line, the indexed regex
	// search returns exactly what a full scan returns.
	ctx := context.Background()
	e := newEnv(t, textSchema, Config{})
	gen := workload.NewTextGen(workload.DefaultTextConfig(52))
	docs := gen.Docs(500)
	for i := 0; i < 10; i++ {
		docs[i*37] = fmt.Sprintf("svc-%02d request took %dms to finish", i, 100+i)
	}
	e.appendDocs(t, docs)
	if _, err := e.cli.Index(ctx, "body", component.KindFM); err != nil {
		t.Fatal(err)
	}
	pattern := `request took \d+ms`
	indexed, err := e.cli.Search(ctx, Query{Column: "body", Regex: pattern, K: 0, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth via the unindexed path: fresh client with an
	// empty index dir forces a scan.
	scanCli := NewClient(e.table, Config{IndexDir: "empty-index"})
	scanned, err := scanCli.Search(ctx, Query{Column: "body", Regex: pattern, K: 0, Snapshot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed.Matches) != 10 || len(scanned.Matches) != 10 {
		t.Fatalf("indexed %d vs scanned %d", len(indexed.Matches), len(scanned.Matches))
	}
	for i := range indexed.Matches {
		if indexed.Matches[i].Row != scanned.Matches[i].Row {
			t.Fatalf("row mismatch at %d", i)
		}
	}
}
