package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// child is one running server child process.
type child struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	addr    string
	version uint64 // database version the child reported when ready
}

// startChild launches the server child on state and dir and waits for it
// to serve.
func startChild(state, dir string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "child", "-state", state, "-dir", dir)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("server child exited before serving: %v", err)
	}
	f := strings.Fields(line)
	if len(f) != 3 || f[0] != "ready" {
		c.kill()
		return nil, fmt.Errorf("server child: unexpected %q", line)
	}
	c.addr = f[1]
	if c.version, err = strconv.ParseUint(f[2], 10, 64); err != nil {
		c.kill()
		return nil, fmt.Errorf("server child: unexpected %q", line)
	}
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill SIGKILLs the child, as a crash would, and reaps it.
func (c *child) kill() {
	c.cmd.Process.Signal(syscall.SIGKILL)
	c.stdin.Close()
	c.cmd.Wait()
}

// netCounter counts the bytes the generator's sockets move.
type netCounter struct {
	rx, tx atomic.Int64
}

type countedConn struct {
	net.Conn
	n *netCounter
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.rx.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.tx.Add(int64(n))
	return n, err
}

// dial is a client.WithDialer dialer whose connections count bytes.
func (n *netCounter) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return countedConn{Conn: conn, n: n}, nil
}
