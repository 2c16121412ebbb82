package docs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// perfDoc is the one document that states the performance contracts;
// self is this file, whose patterns would match themselves.
const (
	perfDoc = "docs/performance.md"
	self    = "internal/docs/perfdoc_test.go"
)

// removedIdentifiers name code that is gone. The documents that describe
// the code as it is — README.md, ARCHITECTURE.md, and docs/performance.md
// outside its History section — may not mention them, and no Go file may
// use them, so the list holds only what was really removed.
var removedIdentifiers = []string{
	"oldAlloc", "annOrder", "annPos", "MaxNoticeS", "openWindow",
	"restartCapacity", "Reconfigurer", "scheduleChanges", "pendingDrains",
	"effNum", "effDen", "wallMark", "TestViewArenaMatchesRebuild",
}

var (
	baselineRe = regexp.MustCompile(`BENCH_PR(\d+)\.json`)
	ciGateRe   = regexp.MustCompile(`benchjson\s+-baseline\s+(BENCH_PR\d+\.json)`)
	// gateWordRe marks a sentence that names a baseline as CI's check.
	gateWordRe = regexp.MustCompile(`(?i)\bgat(?:e|es|ed|ing)\b|-baseline\b|\bpinned\b`)
	// sentenceBreakRe splits markdown into sentences, paragraphs, list
	// items, headings and table rows.
	sentenceBreakRe = regexp.MustCompile(`\n[ \t]*\n|\n[ \t]*(?:[-*+]|\d+\.)[ \t]|\n[ \t]*[#|]|[.!?](?:\s|$)`)
	trendRe         = regexp.MustCompile(`benchjson[ \t]+-trend((?:[ \t]+\S+)+)`)
	// citationRe is a quoted section title right after the doc's name:
	// `performance.md, "Title"`, `(performance.md), "Title"` or
	// `performance.md's "Title"`.
	citationRe  = regexp.MustCompile(`performance\.md\)?(?:'s)?,?\s+"([^"]+)"`)
	anchorRe    = regexp.MustCompile(`performance\.md#([\w-]+)`)
	selfLinkRe  = regexp.MustCompile(`\]\(#([\w-]+)\)`)
	goCommentRe = regexp.MustCompile(`\n[ \t]*//`)
	slugDropRe  = regexp.MustCompile(`[^\p{L}\p{N} _-]`)
)

// TestPerformanceDocsAgree keeps the performance claims of the docs in
// step with the repository: the baseline CI checks against, the trend
// commands, the section titles other files cite, and the names of code
// that is gone.
func TestPerformanceDocsAgree(t *testing.T) {
	root := filepath.Join("..", "..")
	read := func(rel string) string {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	ci := read(".github/workflows/ci.yml")
	doc := read(perfDoc)
	files := sourceFiles(t, root)
	delete(files, self)

	t.Run("gate", func(t *testing.T) {
		var gates []string
		for _, m := range ciGateRe.FindAllStringSubmatch(ci, -1) {
			if !slices.Contains(gates, m[1]) {
				gates = append(gates, m[1])
			}
		}
		if len(gates) != 1 {
			t.Fatalf("ci.yml passes %d baselines to benchjson -baseline (%v), want one", len(gates), gates)
		}
		gate := gates[0]
		named := false
		for _, rel := range []string{perfDoc, "README.md", "ARCHITECTURE.md"} {
			for _, s := range sentences(read(rel)) {
				if !gateWordRe.MatchString(s) {
					continue
				}
				for _, b := range baselineRe.FindAllString(s, -1) {
					if b != gate {
						t.Errorf("%s names %s as the gate, but CI checks against %s: %q", rel, b, gate, s)
					} else if rel == perfDoc {
						named = true
					}
				}
			}
		}
		if !named {
			t.Errorf("%s does not name CI's baseline %s as the gate", perfDoc, gate)
		}
	})

	t.Run("trend", func(t *testing.T) {
		committed := committedBaselines(t, root)
		for rel, text := range files {
			if !strings.HasSuffix(rel, ".md") && !strings.HasSuffix(rel, ".yml") {
				continue
			}
			text = strings.ReplaceAll(text, "\\\n", " ")
			for _, m := range trendRe.FindAllStringSubmatch(text, -1) {
				args := strings.Fields(m[1])
				if !strings.HasSuffix(strings.Trim(args[0], "`"), ".json") {
					continue // prose about the flag, not a command
				}
				listed := baselineRe.FindAllString(m[1], -1)
				if !slices.Equal(listed, committed) {
					t.Errorf("%s: benchjson -trend lists %v, want every committed baseline in PR order %v", rel, listed, committed)
				}
			}
		}
	})

	t.Run("citations", func(t *testing.T) {
		titles, slugs := headings(doc)
		for rel, text := range files {
			if rel == "CHANGES.md" {
				continue // the change log cites sections as they were then
			}
			if strings.HasSuffix(rel, ".go") {
				text = goCommentRe.ReplaceAllString(text, " ")
			}
			for _, m := range citationRe.FindAllStringSubmatch(text, -1) {
				if title := strings.Join(strings.Fields(m[1]), " "); !titles[title] {
					t.Errorf("%s cites %s section %q, which has no such heading", rel, perfDoc, title)
				}
			}
			links := anchorRe.FindAllStringSubmatch(text, -1)
			if rel == perfDoc {
				links = append(links, selfLinkRe.FindAllStringSubmatch(text, -1)...)
			}
			for _, m := range links {
				if !slugs[m[1]] {
					t.Errorf("%s links to %s#%s, which has no such heading", rel, perfDoc, m[1])
				}
			}
		}
	})

	t.Run("removed", func(t *testing.T) {
		words := make([]*regexp.Regexp, len(removedIdentifiers))
		for i, id := range removedIdentifiers {
			words[i] = regexp.MustCompile(`\b` + id + `\b`)
		}
		check := func(rel, text string, allowed func(line int) bool) {
			for n, line := range strings.Split(text, "\n") {
				for i, w := range words {
					if w.MatchString(line) && !allowed(n) {
						t.Errorf("%s:%d names removed %s", rel, n+1, removedIdentifiers[i])
					}
				}
			}
		}
		never := func(int) bool { return false }
		check("README.md", read("README.md"), never)
		check("ARCHITECTURE.md", read("ARCHITECTURE.md"), never)
		from, to := sectionLines(doc, "## History")
		if from < 0 {
			t.Errorf("%s has no History section", perfDoc)
		}
		check(perfDoc, doc, func(n int) bool { return n >= from && n < to })
		for rel, text := range files {
			if strings.HasSuffix(rel, ".go") {
				check(rel, text, never)
			}
		}
	})
}

// sourceFiles reads every markdown, Go and workflow file of the
// repository, keyed by slash path relative to root.
func sourceFiles(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") && name != ".github" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(name) {
		case ".md", ".go", ".yml":
		default:
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// committedBaselines lists the BENCH_PR*.json files at the root in PR
// order.
func committedBaselines(t *testing.T, root string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_PR*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range paths {
		if baselineRe.MatchString(filepath.Base(p)) {
			names = append(names, filepath.Base(p))
		}
	}
	pr := func(name string) int {
		n, _ := strconv.Atoi(baselineRe.FindStringSubmatch(name)[1])
		return n
	}
	slices.SortFunc(names, func(a, b string) int { return pr(a) - pr(b) })
	if len(names) == 0 {
		t.Fatal("no committed BENCH_PR*.json")
	}
	return names
}

// sentences splits markdown into whitespace-normalised sentences.
func sentences(text string) []string {
	var out []string
	for _, s := range sentenceBreakRe.Split(text, -1) {
		if s = strings.Join(strings.Fields(s), " "); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// headings returns the titles of a markdown file's headings and their
// GitHub anchors.
func headings(md string) (titles, slugs map[string]bool) {
	titles, slugs = map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(md, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		title := strings.TrimSpace(strings.TrimLeft(line, "#"))
		titles[title] = true
		slug := strings.ToLower(slugDropRe.ReplaceAllString(title, ""))
		slugs[strings.ReplaceAll(slug, " ", "-")] = true
	}
	return titles, slugs
}

// sectionLines returns the 0-based line range [from, to) of the level-2
// section whose heading line is heading; both are -1 when there is none.
func sectionLines(md, heading string) (from, to int) {
	lines := strings.Split(md, "\n")
	from = slices.Index(lines, heading)
	if from < 0 {
		return -1, -1
	}
	for n := from + 1; n < len(lines); n++ {
		if strings.HasPrefix(lines[n], "# ") || strings.HasPrefix(lines[n], "## ") {
			return from, n
		}
	}
	return from, len(lines)
}
