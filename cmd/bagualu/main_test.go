package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"bagualu/internal/ckpt"
	"bagualu/internal/moe"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// output runs the binary's argument vector in-process; an error
// inside it exits the test binary with the message on stderr.
func output(args ...string) []byte {
	var buf bytes.Buffer
	run(args, &buf)
	return buf.Bytes()
}

// TestRegistryMatchesExperimentsMD is the both-ways check: every
// `## R…` section of EXPERIMENTS.md names exactly one registry id and
// carries exactly one regenerate command — that id's — and every id
// has a section.
func TestRegistryMatchesExperimentsMD(t *testing.T) {
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, e := range registry {
		if ids[e.id] {
			t.Errorf("registry lists %s twice", e.id)
		}
		ids[e.id] = true
	}
	heading := regexp.MustCompile(`(?m)^## (R\S+)`)
	regen := regexp.MustCompile("`go run \\./cmd/bagualu exp ([^` ]+)")
	locs := heading.FindAllSubmatchIndex(md, -1)
	seen := map[string]bool{}
	for i, loc := range locs {
		id := string(md[loc[2]:loc[3]])
		end := len(md)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		if !ids[id] {
			t.Errorf("EXPERIMENTS.md section %q has no registry entry", id)
		}
		if seen[id] {
			t.Errorf("EXPERIMENTS.md has two sections for %s", id)
		}
		seen[id] = true
		cmds := regen.FindAllSubmatch(md[loc[0]:end], -1)
		if len(cmds) != 1 || string(cmds[0][1]) != id {
			t.Errorf("section %s: want exactly one `go run ./cmd/bagualu exp %s` command, found %q", id, id, cmds)
		}
	}
	for id := range ids {
		if !seen[id] {
			t.Errorf("registry entry %s has no `## %s` section in EXPERIMENTS.md", id, id)
		}
	}
}

// tier1 lists the deterministic entries cheap enough to regenerate on
// every `go test` (milliseconds each); verify.sh's loop compares the
// slower ones. Regenerate any golden with
//
//	go run ./cmd/bagualu exp <id> -csv > cmd/bagualu/testdata/<id>.csv
var tier1 = []string{"R1", "R2-proj", "R6", "R6b", "R7", "R7b", "R15", "R20-loss"}

// TestGoldens pins the deterministic tables: every deterministic
// entry has a golden, nothing else does, each is compared by exactly
// one of tier1 and verify.sh's loop, and the tier-1 entries
// regenerate to the same bytes (which also fails on nondeterminism).
func TestGoldens(t *testing.T) {
	sh, err := os.ReadFile("../../verify.sh")
	if err != nil {
		t.Fatal(err)
	}
	loop := regexp.MustCompile(`(?m)^for id in (.*); do$`).FindSubmatch(sh)
	if loop == nil {
		t.Fatal("verify.sh: no `for id in ...; do` golden loop")
	}
	gates := map[string]int{}
	for _, id := range slices.Concat(tier1, strings.Fields(string(loop[1]))) {
		gates[id]++
	}
	want := map[string]bool{}
	for _, e := range registry {
		if e.unstable == "" {
			want[e.id+".csv"] = true
			if gates[e.id] != 1 {
				t.Errorf("%s: listed %d times across tier1 and verify.sh, want once", e.id, gates[e.id])
			}
		} else if gates[e.id] != 0 {
			t.Errorf("%s is %s but listed in a golden gate", e.id, e.unstable)
		}
	}
	want["plan-seed7.csv"] = true // TestPlanReplaysPerSeed
	files, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !want[f.Name()] {
			t.Errorf("testdata/%s matches no deterministic registry entry", f.Name())
		}
		delete(want, f.Name())
	}
	for name := range want {
		t.Errorf("testdata/%s is missing", name)
	}
	for _, id := range tier1 {
		golden, err := os.ReadFile(filepath.Join("testdata", id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got := output("exp", id, "-csv"); !bytes.Equal(got, golden) {
			t.Errorf("exp %s -csv differs from testdata/%s.csv:\n%s", id, id, got)
		}
	}
}

// TestPlanReplaysPerSeed: `plan -seed 7 -csv` is a pure function of
// its flags (testdata/plan-seed7.csv is that command's output). It is
// the autotuner's tier-1 golden; R17, the same search at its recorded
// seed, is compared by verify.sh.
func TestPlanReplaysPerSeed(t *testing.T) {
	golden, err := os.ReadFile("testdata/plan-seed7.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got := output("plan", "-seed", "7", "-csv"); !bytes.Equal(got, golden) {
		t.Errorf("plan -seed 7 -csv differs from testdata/plan-seed7.csv:\n%s", got)
	}
}

// TestTrainCheckpointServes: `train -checkpoint` on dp2 x ep2 writes
// a committed sharded checkpoint that LoadForInference restores into
// a 1-rank model holding every expert — each rank's expert shard is
// in it, not rank 0's alone.
func TestTrainCheckpointServes(t *testing.T) {
	dir := t.TempDir()
	run([]string{"train", "-dp", "2", "-ep", "2", "-steps", "2", "-checkpoint", dir,
		"-vocab", "32", "-dim", "16", "-heads", "2", "-seq", "8", "-experts", "4"}, io.Discard)
	gate := moe.GateConfig{Dim: 16, NumExperts: 4, TopK: 2, CapacityFactor: 1.5}
	model := nn.NewGPT(nn.GPTConfig{Vocab: 32, Dim: 16, Heads: 2, Layers: 2, SeqLen: 8, FFNHidden: 64},
		tensor.NewRNG(99), func(_ int, name string, r *tensor.RNG) nn.Layer {
			return moe.NewLocalMoE(name, r, gate, 64)
		})
	// LoadForInference fails on any weight no shard covers.
	man, hdr, err := ckpt.LoadForInference(dir, model.Params())
	if err != nil {
		t.Fatal(err)
	}
	if man.Shards != 4 || man.Layout.DataParallel != 2 || man.Layout.ExpertParallel != 2 || hdr.Step != 2 {
		t.Errorf("manifest %+v header step %d: want 4 shards of dp2 x ep2 at step 2", man, hdr.Step)
	}
}
