package engine

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
)

// recvDatagram reads one datagram from pc, failing after a second.
func recvDatagram(t *testing.T, pc net.PacketConn) string {
	t.Helper()
	buf := make([]byte, 512)
	if err := pc.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatalf("no datagram: %v", err)
	}
	return string(buf[:n])
}

// TestUDPNotifierSurvivesStoppedAgent: once the agent's endpoint is gone,
// the port-unreachable it provokes must not fail later sends — two DMLs in
// a row still notify without error.
func TestUDPNotifierSurvivesStoppedAgent(t *testing.T) {
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := pc.LocalAddr().(*net.UDPAddr).Port

	udp := UDPNotifier()
	var mu sync.Mutex
	var errs []error
	e := New(catalog.New())
	e.SetNotifier(func(host string, port int, msg string) error {
		err := udp(host, port, msg)
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
		return err
	})
	s := e.NewSession("dbo")
	mustExec(t, s, fmt.Sprintf(`create database d
use d
create table t (k int)
create trigger tg on t for insert as select syb_sendmsg('127.0.0.1', %d, 'ins')`, port))

	mustExec(t, s, "insert t values (1)")
	if got := recvDatagram(t, pc); got != "ins" {
		t.Fatalf("datagram %q", got)
	}
	pc.Close()
	for i := 2; i <= 3; i++ {
		mustExec(t, s, fmt.Sprintf("insert t values (%d)", i))
		time.Sleep(10 * time.Millisecond) // let the ICMP error arrive
	}
	if err := udp("127.0.0.1", port, "direct"); err != nil {
		t.Errorf("send after the endpoint closed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 3 {
		t.Fatalf("notifier called %d times, want 3", len(errs))
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("notification %d failed: %v", i+1, err)
		}
	}
}

func TestUDPNotifierIPv6Loopback(t *testing.T) {
	pc, err := net.ListenPacket("udp6", "[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	defer pc.Close()
	port := pc.LocalAddr().(*net.UDPAddr).Port
	udp := UDPNotifier()
	for _, msg := range []string{"v6-a", "v6-b"} {
		if err := udp("::1", port, msg); err != nil {
			t.Fatal(err)
		}
		if got := recvDatagram(t, pc); got != msg {
			t.Errorf("datagram %q, want %q", got, msg)
		}
	}
}
