package main

import (
	"fmt"
	"testing"
)

// TestUsageErrors: malformed invocations exit 2 before any load is
// generated. A -hot outside the point universe is one of them: quietly
// substituting another hot-set size would soak a different workload
// than the one asked for.
func TestUsageErrors(t *testing.T) {
	n := len(universe())
	for _, args := range [][]string{
		{},
		{"-no-such-flag"},
		{"-addr", "127.0.0.1:1", "-hot", "0"},
		{"-addr", "127.0.0.1:1", "-hot", "-3"},
		{"-addr", "127.0.0.1:1", "-hot", fmt.Sprint(n + 1)},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
