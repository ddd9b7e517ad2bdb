package webmail

import (
	"warehousesim/internal/stats"
)

// Action is one client interaction with the webmail front end.
type Action int

// The session action vocabulary (§2.1: "login, read email and
// attachments, reply/forward/delete/move, compose and send").
const (
	Login Action = iota
	ListFolder
	ReadMessage
	ReadAttachment
	Reply
	Forward
	Compose
	Delete
	Move
	Search
	Logout
	numActions
)

// String implements fmt.Stringer.
func (a Action) String() string {
	return [...]string{"login", "list", "read", "read-attachment", "reply",
		"forward", "compose", "delete", "move", "search", "logout"}[a]
}

// ActionWork quantifies the work one action performed; the generator
// scales these onto the calibrated demand profile.
type ActionWork struct {
	Action Action
	// CPUUnits is proportional to bytes rendered/parsed by the PHP layer.
	CPUUnits float64
	// DiskOps / DiskReadBytes / DiskWriteBytes are spool accesses.
	DiskOps        float64
	DiskReadBytes  float64
	DiskWriteBytes float64
	// NetBytes covers both the HTTP response and the IMAP/SMTP backend
	// round trips (the paper notes webmail's heavy network activity).
	NetBytes float64
}

// heavyUsageMix is the action mix of an active session, in the spirit of
// the LoadSim "heavy usage" profile: reading dominates, with regular
// replies, composes and housekeeping.
var heavyUsageMix = []struct {
	action Action
	weight float64
}{
	{ListFolder, 0.20},
	{ReadMessage, 0.33},
	{ReadAttachment, 0.08},
	{Reply, 0.10},
	{Forward, 0.04},
	{Compose, 0.08},
	{Delete, 0.07},
	{Move, 0.04},
	{Search, 0.03},
	{Logout, 0.03},
}

// Session is one logged-in user's state machine.
type Session struct {
	store  *Store
	user   int
	active bool
	mix    *stats.Empirical
}

// NewSession binds a session to one user account.
func NewSession(store *Store, user int) *Session {
	values := make([]float64, len(heavyUsageMix))
	weights := make([]float64, len(heavyUsageMix))
	for i, m := range heavyUsageMix {
		values[i] = float64(m.action)
		weights[i] = m.weight
	}
	mix, err := stats.NewEmpirical(values, weights)
	if err != nil {
		// The static mix is valid by construction.
		panic(err)
	}
	return &Session{store: store, user: user, mix: mix}
}

// Step advances the state machine by one action and returns the work it
// performed. A logged-out session performs a Login; Logout closes it.
func (s *Session) Step(r *stats.RNG) ActionWork {
	// Background delivery (exim receiving outside mail): heavy users see
	// a steady inbound stream, which keeps inboxes from draining as the
	// session deletes and files messages.
	if s.store.FolderLen(s.user, Inbox) < 8 {
		for i := 0; i < 3; i++ {
			s.store.deliver(s.user, Inbox, s.store.newMessage(r))
		}
	}
	if !s.active {
		s.active = true
		return s.login(r)
	}
	a := Action(s.mix.Sample(r))
	switch a {
	case ListFolder:
		return s.list(r)
	case ReadMessage:
		return s.read(r, false)
	case ReadAttachment:
		return s.read(r, true)
	case Reply, Forward:
		return s.replyOrForward(r, a)
	case Compose:
		return s.compose(r)
	case Delete:
		return s.delete(r)
	case Move:
		return s.move(r)
	case Search:
		return s.search(r)
	case Logout:
		s.active = false
		return ActionWork{Action: Logout, CPUUnits: 1e3, NetBytes: 2e3}
	default:
		return s.list(r)
	}
}

// login authenticates and renders the inbox view.
func (s *Session) login(r *stats.RNG) ActionWork {
	w := s.list(r)
	w.Action = Login
	w.CPUUnits += 8e3 // auth, session setup
	w.NetBytes += 4e3
	return w
}

// list renders a folder listing: headers of up to a page of messages.
func (s *Session) list(r *stats.RNG) ActionWork {
	f := s.randomFolder(r)
	n := s.store.FolderLen(s.user, f)
	if n > 25 {
		n = 25
	}
	hdrBytes := float64(n) * 300
	return ActionWork{
		Action:        ListFolder,
		CPUUnits:      4e3 + 3*hdrBytes, // template rendering per row
		DiskOps:       1,
		DiskReadBytes: hdrBytes,
		NetBytes:      3e3 + hdrBytes + 2e3, // page + IMAP header fetch
	}
}

// read fetches and renders one message; withAttachment additionally
// downloads the attachment.
func (s *Session) read(r *stats.RNG, withAttachment bool) ActionWork {
	f := s.randomFolder(r)
	i := s.store.pick(r, s.user, f)
	if i < 0 {
		return s.list(r)
	}
	box := &s.store.boxes[s.user]
	m := &box.Folders[f][i]
	m.Read = true
	bytes := float64(m.BodyBytes)
	action := ReadMessage
	if withAttachment && m.AttachmentBytes > 0 {
		bytes += float64(m.AttachmentBytes)
		action = ReadAttachment
	}
	return ActionWork{
		Action:        action,
		CPUUnits:      3e3 + 2*float64(m.BodyBytes), // HTML-ize body only
		DiskOps:       1,
		DiskReadBytes: bytes,
		NetBytes:      2e3 + 2*bytes, // IMAP fetch + HTTP response
	}
}

// replyOrForward composes a response quoting the original and delivers
// it to another user via the SMTP path.
func (s *Session) replyOrForward(r *stats.RNG, a Action) ActionWork {
	f := s.randomFolder(r)
	i := s.store.pick(r, s.user, f)
	if i < 0 {
		return s.compose(r)
	}
	orig := s.store.boxes[s.user].Folders[f][i]
	reply := s.store.newMessage(r)
	reply.BodyBytes += orig.BodyBytes / 2 // quoted original
	if a == Forward {
		reply.AttachmentBytes = orig.AttachmentBytes
	}
	dest := r.Intn(s.store.Users())
	s.store.deliver(dest, Inbox, reply)
	s.store.deliver(s.user, Sent, reply)
	bytes := float64(reply.Bytes())
	return ActionWork{
		Action:         a,
		CPUUnits:       6e3 + 2*bytes,
		DiskOps:        2, // read original + write sent copy
		DiskReadBytes:  float64(orig.Bytes()),
		DiskWriteBytes: 2 * bytes,
		NetBytes:       4e3 + 2*bytes, // form + SMTP submission
	}
}

// compose writes a fresh message to another user.
func (s *Session) compose(r *stats.RNG) ActionWork {
	m := s.store.newMessage(r)
	dest := r.Intn(s.store.Users())
	s.store.deliver(dest, Inbox, m)
	s.store.deliver(s.user, Sent, m)
	bytes := float64(m.Bytes())
	return ActionWork{
		Action:         Compose,
		CPUUnits:       6e3 + 1.5*bytes,
		DiskOps:        1,
		DiskWriteBytes: 2 * bytes,
		NetBytes:       4e3 + 2*bytes,
	}
}

// delete moves a message to Trash (or purges it from Trash).
func (s *Session) delete(r *stats.RNG) ActionWork {
	f := s.randomFolder(r)
	i := s.store.pick(r, s.user, f)
	if i < 0 {
		return s.list(r)
	}
	m := s.store.remove(s.user, f, i)
	if f != Trash {
		s.store.deliver(s.user, Trash, m)
	}
	return ActionWork{
		Action:         Delete,
		CPUUnits:       3e3,
		DiskOps:        1,
		DiskWriteBytes: 512, // flag/index update
		NetBytes:       3e3,
	}
}

// move relocates a message between folders.
func (s *Session) move(r *stats.RNG) ActionWork {
	from := s.randomFolder(r)
	i := s.store.pick(r, s.user, from)
	if i < 0 {
		return s.list(r)
	}
	to := Folder(r.Intn(int(numFolders)))
	if to == from {
		to = (to + 1) % numFolders
	}
	m := s.store.remove(s.user, from, i)
	s.store.deliver(s.user, to, m)
	return ActionWork{
		Action:         Move,
		CPUUnits:       3e3,
		DiskOps:        2,
		DiskReadBytes:  float64(m.Bytes()),
		DiskWriteBytes: float64(m.Bytes()),
		NetBytes:       3e3,
	}
}

// search scans the whole mailbox for a keyword — SquirrelMail-style
// index-less search: every body is fetched and string-matched, making
// this the most expensive single action.
func (s *Session) search(r *stats.RNG) ActionWork {
	term := uint16(s.store.keywords.Rank(r))
	box := &s.store.boxes[s.user]
	var scanned float64
	matches := 0
	for f := Folder(0); f < numFolders; f++ {
		for i := range box.Folders[f] {
			m := &box.Folders[f][i]
			scanned += float64(m.BodyBytes)
			if m.HasKeyword(term) {
				matches++
			}
		}
	}
	return ActionWork{
		Action:        Search,
		CPUUnits:      5e3 + 2.5*scanned, // byte-wise matching across the spool
		DiskOps:       2,                 // folder scans (mostly sequential)
		DiskReadBytes: scanned,
		NetBytes:      3e3 + 300*float64(matches),
	}
}

// randomFolder favors the inbox, as real sessions do.
func (s *Session) randomFolder(r *stats.RNG) Folder {
	if r.Bool(0.7) {
		return Inbox
	}
	return Folder(1 + r.Intn(int(numFolders)-1))
}
