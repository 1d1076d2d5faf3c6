package agent

import (
	"bytes"
	"fmt"
)

// parseNotificationBytes decodes one text notification line without
// allocating: field boundaries are scanned in place and the three name
// fields are resolved through the interner. It is byte-for-byte equivalent
// to parseNotification (which delegates here); the fuzz corpus pins that.
func parseNotificationBytes(msg []byte, in *interner) (event, table, op string, vno int, err error) {
	if len(msg) > maxNotificationLen {
		return "", "", "", 0, fmt.Errorf("agent: oversized notification (%d bytes)", len(msg))
	}
	m := bytes.TrimSpace(msg)
	// Exactly five '|'-separated fields, the first the format tag.
	var seps [4]int
	nsep := 0
	for i, c := range m {
		if c == '|' {
			if nsep == len(seps) {
				return "", "", "", 0, fmt.Errorf("agent: malformed notification %q", msg)
			}
			seps[nsep] = i
			nsep++
		}
	}
	if nsep != len(seps) || string(m[:seps[0]]) != "ECA1" {
		return "", "", "", 0, fmt.Errorf("agent: malformed notification %q", msg)
	}
	evB := m[seps[0]+1 : seps[1]]
	tblB := m[seps[1]+1 : seps[2]]
	opB := m[seps[2]+1 : seps[3]]
	vnoB := m[seps[3]+1:]
	if len(evB) == 0 || len(tblB) == 0 || len(opB) == 0 {
		return "", "", "", 0, fmt.Errorf("agent: empty field in notification %q", msg)
	}
	if len(vnoB) == 0 {
		return "", "", "", 0, fmt.Errorf("agent: missing vNo in notification %q", msg)
	}
	n := 0
	for _, c := range vnoB {
		if c < '0' || c > '9' {
			return "", "", "", 0, fmt.Errorf("agent: bad vNo in notification %q", msg)
		}
		d := int(c - '0')
		if n > (int(^uint(0)>>1)-d)/10 {
			return "", "", "", 0, fmt.Errorf("agent: vNo overflow in notification %q", msg)
		}
		n = n*10 + d
	}
	return in.intern(evB), in.intern(tblB), in.intern(opB), n, nil
}
