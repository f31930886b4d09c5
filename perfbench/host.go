package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// sourceCommit identifies the code that was measured. The benchmark may run
// from a plain export of the repository with no git metadata, so it reports
// a digest of every Go source and go.mod under the working directory, plus
// the git HEAD when a .git directory is present.
func sourceCommit() string {
	var files []string
	// The callback never fails the walk, so WalkDir returns nil.
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	id := fmt.Sprintf("source-sha256:%x", h.Sum(nil)[:12])
	if head := gitHead(); head != "" {
		id = "git:" + head + " " + id
	}
	return id
}

func gitHead() string {
	b, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}
