package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"coherdb/internal/rel"
)

// StateCodec encodes protocol-relevant System state as a fixed-width
// tuple of uint32 dictionary codes — the out-of-core representation
// behind the segmented model checker. Two systems encode to equal
// tuples if and only if their Fingerprints are equal: every component
// the fingerprint covers (channel queues, directory and busy
// directory, caches, MSHRs, scripts, outstanding transactions) maps to
// a dedicated column, with variable-length components interned as
// canonical strings in a codec-private dictionary and 0 reserved for
// "absent".
//
// The address and channel universes are fixed at codec construction
// from the initial system; the protocol never invents addresses, so
// the universe is closed over exploration. Encoding a system that
// mentions an unknown address panics.
//
// Encode is not safe for concurrent use on one codec ONLY with a
// shared scratch; the codec itself (dictionary interning) is
// thread-safe, so concurrent encoders each passing their own dst are
// fine.
type StateCodec struct {
	dict    *rel.Dict
	chans   []string
	addrs   []Addr
	addrIdx map[Addr]int
	nodes   int
	width   int

	// Column layout: [channels][dir per addr][busy per addr] then per
	// node: [cache per addr][mshr per addr][script][outstanding per addr].
	dirOff, busyOff, nodeOff, perNode int

	ownerM, ownerE, sharerS uint32
}

// NewStateCodec builds a codec for systems shaped like s (same config,
// channels, nodes, and address universe).
func NewStateCodec(s *System) *StateCodec {
	c := &StateCodec{dict: rel.NewDict(), nodes: len(s.nodes), addrIdx: map[Addr]int{}}
	for name := range s.channels {
		c.chans = append(c.chans, name)
	}
	sort.Strings(c.chans)

	seen := map[Addr]bool{}
	add := func(a Addr) { seen[a] = true }
	sd := s.dir.base()
	for a := range sd.dir {
		add(a)
	}
	for a := range sd.busy {
		add(a)
	}
	for _, n := range s.nodes {
		for a := range n.cache {
			add(a)
		}
		for a := range n.mshr {
			add(a)
		}
		for a := range n.outstanding {
			add(a)
		}
		for _, op := range n.pendingOp {
			add(op.Addr)
		}
	}
	for _, ch := range s.channels {
		for _, m := range ch.q {
			add(m.Addr)
		}
	}
	for a := range seen {
		c.addrs = append(c.addrs, a)
	}
	sort.Slice(c.addrs, func(i, j int) bool { return c.addrs[i] < c.addrs[j] })
	for i, a := range c.addrs {
		c.addrIdx[a] = i
	}

	na := len(c.addrs)
	c.dirOff = len(c.chans)
	c.busyOff = c.dirOff + na
	c.nodeOff = c.busyOff + na
	c.perNode = 3*na + 1
	c.width = c.nodeOff + c.nodes*c.perNode

	// Pre-intern the MESI cache-state names so streaming coherence
	// checks can compare raw codes without decoding.
	c.ownerM = c.intern(cacheStateM)
	c.ownerE = c.intern(cacheStateE)
	c.sharerS = c.intern(cacheStateS)
	return c
}

// The protocol package's stable cache-state names, referenced here via
// constants to avoid an import cycle risk in future splits.
const (
	cacheStateM = "M"
	cacheStateE = "E"
	cacheStateS = "S"
)

func (c *StateCodec) intern(s string) uint32 { return c.dict.Code(rel.S(s)) }

// Width reports the codes per encoded state.
func (c *StateCodec) Width() int { return c.width }

// NumAddrs reports the size of the address universe.
func (c *StateCodec) NumAddrs() int { return len(c.addrs) }

// NumNodes reports the node count.
func (c *StateCodec) NumNodes() int { return c.nodes }

// AddrAt returns the i-th address of the sorted universe.
func (c *StateCodec) AddrAt(i int) Addr { return c.addrs[i] }

// Dict exposes the codec-private dictionary (for byte accounting and
// metrics attribution).
func (c *StateCodec) Dict() *rel.Dict { return c.dict }

// CacheCol returns the column index of node n's cache state for the
// a-th address of the universe.
func (c *StateCodec) CacheCol(n, a int) int {
	return c.nodeOff + n*c.perNode + a
}

// IsOwnerCode reports whether a cache-state code means M or E.
func (c *StateCodec) IsOwnerCode(code uint32) bool {
	return code == c.ownerM || code == c.ownerE
}

// IsSharerCode reports whether a cache-state code means S.
func (c *StateCodec) IsSharerCode(code uint32) bool { return code == c.sharerS }

func (c *StateCodec) addrSlot(a Addr) int {
	i, ok := c.addrIdx[a]
	if !ok {
		panic(fmt.Sprintf("sim: address %d outside the codec universe", a))
	}
	return i
}

// Encode writes s's state tuple into dst (grown if needed) and returns
// it. The scratch builder sb is reused across components.
func (c *StateCodec) Encode(s *System, dst []uint32) []uint32 {
	if cap(dst) < c.width {
		dst = make([]uint32, c.width)
	}
	dst = dst[:c.width]
	for i := range dst {
		dst[i] = 0
	}
	var sb strings.Builder

	for i, name := range c.chans {
		ch := s.channels[name]
		if ch == nil || len(ch.q) == 0 {
			continue
		}
		sb.Reset()
		for _, m := range ch.q {
			sb.WriteString(m.Type)
			sb.WriteByte(',')
			sb.WriteString(string(m.From))
			sb.WriteByte(',')
			sb.WriteString(string(m.To))
			sb.WriteByte(',')
			sb.WriteString(strconv.Itoa(int(m.Addr)))
			sb.WriteByte('|')
		}
		dst[i] = c.intern(sb.String())
	}

	sd := s.dir.base()
	for a, e := range sd.dir {
		sb.Reset()
		sb.WriteString(e.st)
		sb.WriteByte('|')
		sh := make([]string, 0, len(e.sharers))
		for k := range e.sharers {
			sh = append(sh, string(k))
		}
		sort.Strings(sh)
		sb.WriteString(strings.Join(sh, ","))
		dst[c.dirOff+c.addrSlot(a)] = c.intern(sb.String())
	}
	for a, b := range sd.busy {
		sb.Reset()
		sb.WriteString(b.st)
		sb.WriteByte('|')
		sb.WriteString(strconv.Itoa(b.pending))
		sb.WriteByte('|')
		sb.WriteString(string(b.requester))
		dst[c.busyOff+c.addrSlot(a)] = c.intern(sb.String())
	}

	na := len(c.addrs)
	for ni, n := range s.nodes {
		base := c.nodeOff + ni*c.perNode
		for a, st := range n.cache {
			dst[base+c.addrSlot(a)] = c.intern(st)
		}
		// MSHR entries are presence-only (only ever set true or
		// deleted), and Fingerprint keys on presence — mirror that.
		for a := range n.mshr {
			dst[base+na+c.addrSlot(a)] = 1
		}
		if len(n.pendingOp) > 0 {
			sb.Reset()
			for _, op := range n.pendingOp {
				// Kind/Addr only: Fingerprint ignores Delay, so the
				// codec must too or equal states would encode apart.
				sb.WriteString(op.Kind)
				sb.WriteByte('/')
				sb.WriteString(strconv.Itoa(int(op.Addr)))
				sb.WriteByte(';')
			}
			dst[base+2*na] = c.intern(sb.String())
		}
		for a, op := range n.outstanding {
			dst[base+2*na+1+c.addrSlot(a)] = c.intern(op.Kind)
		}
	}
	return dst
}

// isRawCol reports whether column j holds a raw number (the MSHR
// presence flags) rather than a dictionary code.
func (c *StateCodec) isRawCol(j int) bool {
	if j < c.nodeOff {
		return false
	}
	k := (j - c.nodeOff) % c.perNode
	na := len(c.addrs)
	return k >= na && k < 2*na
}

// ValueHash hashes an encoded state by its decoded VALUES, not its
// codes — two codecs (or two processes) that interned strings in
// different orders still hash equal states equally. The model checker
// XORs these per state into the order-insensitive reachable-set hash.
func (c *StateCodec) ValueHash(tuple []uint32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	for j, code := range tuple {
		switch {
		case c.isRawCol(j):
			mix(0x03)
			mix(byte(code))
			mix(byte(code >> 8))
			mix(byte(code >> 16))
			mix(byte(code >> 24))
		case code == 0:
			mix(0x02)
		default:
			mix(0x01)
			s := c.dict.Value(code).Str()
			for i := 0; i < len(s); i++ {
				mix(s[i])
			}
			mix(0x00)
		}
	}
	return h
}

// EncodeAction interns a for compact storage in the search tree.
func (c *StateCodec) EncodeAction(a Action) uint32 {
	if a.Kind == "issue" {
		return c.intern("issue|" + strconv.Itoa(a.Node))
	}
	return c.intern("deliver|" + a.Chan)
}

// DecodeAction inverts EncodeAction.
func (c *StateCodec) DecodeAction(code uint32) Action {
	s := c.dict.Value(code).Str()
	if rest, ok := strings.CutPrefix(s, "issue|"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil {
			panic("sim: bad action code " + s)
		}
		return Action{Kind: "issue", Node: n}
	}
	if rest, ok := strings.CutPrefix(s, "deliver|"); ok {
		return Action{Kind: "deliver", Chan: rest}
	}
	panic("sim: bad action code " + s)
}
