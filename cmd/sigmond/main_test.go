package main

import (
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestFlagValidation(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	cases := [][]string{
		{"-policy", "bogus"},
		{"stray-arg"},
	}
	for _, args := range cases {
		fs := flag.NewFlagSet("sigmond", flag.ContinueOnError)
		fs.SetOutput(devnull)
		if err := run(fs, args, devnull); err == nil {
			t.Errorf("args %q accepted", args)
		}
	}
}

// TestServeAndInterrupt boots the real binary path: listen on an
// ephemeral port, answer /healthz, then drain cleanly on SIGINT and on
// SIGTERM (the signal supervisors stop services with) — the lifecycle
// the CI smoke job scripts against.
func TestServeAndInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	bin := t.TempDir() + "/sigmond"
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sigmond: %v\n%s", err, out)
	}
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) { serveAndSignal(t, bin, sig) })
	}
}

// serveAndSignal starts bin, waits for /healthz, sends sig, and
// requires a clean exit that logged the drain.
func serveAndSignal(t *testing.T, bin string, sig syscall.Signal) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-shards", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first log line carries the bound address.
	buf := make([]byte, 4096)
	n, err := stderr.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	line := string(buf[:n])
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("no listen line in %q", line)
	}
	addr := strings.Fields(line[i+len(marker):])[0]

	var resp *http.Response
	for attempt := 0; attempt < 50; attempt++ {
		resp, err = http.Get("http://" + addr + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("healthz never came up: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	type exit struct {
		log []byte
		err error
	}
	done := make(chan exit, 1)
	go func() {
		// Read stderr to EOF before Wait, which closes the pipe.
		rest, _ := io.ReadAll(stderr)
		done <- exit{log: rest, err: cmd.Wait()}
	}()
	select {
	case e := <-done:
		if e.err != nil {
			t.Fatalf("sigmond exited uncleanly on %v: %v", sig, e.err)
		}
		if !strings.Contains(line+string(e.log), "sigmond: draining") {
			t.Errorf("sigmond logged no drain on %v:\n%s%s", sig, line, e.log)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("sigmond did not drain within 15s of %v", sig)
	}
}
