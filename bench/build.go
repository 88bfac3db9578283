package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// findRoot returns the repository root: the directory holding the
// daemon's sources, either the working directory (the benchmark command
// runs from the root) or its parent (go test runs in bench/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hdivexplorerd")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/hdivexplorerd in %s or its parent: run from the repository root", wd)
}

// buildPrograms compiles the daemon and the CLI from the repository
// sources into dir. The build is not timed.
func buildPrograms(ctx context.Context, root, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/hdivexplorerd", "./cmd/hdivexplorer")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building the programs under test: %v\n%s", err, out)
	}
	return nil
}
