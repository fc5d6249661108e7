package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"magicstate/internal/store"
)

// TestRunDrainsOnEarlySIGTERM: a SIGTERM sent the moment the address
// file appears — before a client could have made a single request —
// must reach the graceful drain, so run returns nil and the store is
// closed rather than the process dying on the signal.
func TestRunDrainsOnEarlySIGTERM(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr.txt")
	storeDir := filepath.Join(dir, "store")
	cfg := serverConfig{MaxParallel: 1, MaxPoints: 16, MaxInflight: 1, MaxQueue: 1}

	done := make(chan error, 1)
	go func() { done <- run("127.0.0.1:0", addrFile, storeDir, "", cfg, 5*time.Second) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(addrFile); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned %v before writing the address file", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("address file never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	// The in-process open-directory guard is released only by Close, so
	// reopening proves the drain closed the store.
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatalf("store still held after run returned: %v", err)
	}
	st.Close()
}
