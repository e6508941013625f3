package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// SnapshotStore persists checkpoint data. Implementations must be safe for
// concurrent use: instances snapshot in parallel.
type SnapshotStore interface {
	// Save persists one instance's snapshot under (checkpointID, instanceID).
	Save(checkpointID int64, instanceID string, data []byte) error
	// Load retrieves one instance's snapshot.
	Load(checkpointID int64, instanceID string) ([]byte, error)
	// Complete marks a checkpoint finished with its metadata. A checkpoint
	// must never become visible through Latest before Complete returns: the
	// engine treats anything un-completed as aborted on recovery.
	Complete(meta CheckpointMeta) error
	// Latest returns the newest completed checkpoint metadata, ok=false when
	// none exists.
	Latest() (CheckpointMeta, bool)
	// Instances lists the instance IDs stored under a checkpoint.
	Instances(checkpointID int64) ([]string, error)
}

// DiscardableStore is an optional SnapshotStore extension: the engine calls
// Discard to free the partial snapshots of an aborted checkpoint.
type DiscardableStore interface {
	// Discard drops every snapshot saved under the (never completed)
	// checkpoint. Discarding an unknown checkpoint is a no-op.
	Discard(checkpointID int64) error
}

// CheckpointMeta describes one completed checkpoint.
type CheckpointMeta struct {
	ID        int64
	JobName   string
	Savepoint bool
	// Rescaled marks a checkpoint synthesised offline by RescaleCheckpoint
	// rather than taken from a running job. Fault injectors use it to place
	// crash points inside the reconfiguration window.
	Rescaled bool
	// InstanceIDs lists every instance that contributed a snapshot.
	InstanceIDs []string
	// Bytes is the total snapshot volume, for experiment accounting.
	Bytes int64
	// Parent is the checkpoint this one is a delta of (0 = self-contained
	// full checkpoint). Restoring a delta requires the whole parent chain, so
	// GC must never collect a parent a retained delta depends on, and Latest
	// must verify the chain end to end.
	Parent int64
	// Files lists auxiliary files (linked SSTables) referenced by instance
	// snapshots, relative names as passed to FileLinkingStore.LinkFile.
	Files []string
}

// instanceSnapshot is the serialised unit each instance contributes.
type instanceSnapshot struct {
	// State is the keyed state backend image — or, when DeltaBase > 0, a
	// delta payload (state.EncodeDeltaOps) on top of checkpoint DeltaBase.
	State []byte
	// Timers is the timer service image.
	Timers []byte
	// SourceOffset is the replayable source position, if the instance is a
	// source.
	SourceOffset []byte
	// DeltaBase is the checkpoint ID State is a delta of; 0 means State is a
	// full image. Timers/SourceOffset are always full.
	DeltaBase int64
	// Files names backend files (linked into the store via LinkFile) that
	// replace State for file-native backends.
	Files []string
	// FileData embeds the file contents when the store cannot link files
	// (FileData[name] holds the bytes of Files entries).
	FileData map[string][]byte
}

// SnapshotIsDelta reports whether a saved instance payload is a delta (its
// State depends on a parent checkpoint). Fault injectors use it to aim crash
// points at delta saves specifically. Undecodable payloads report false.
func SnapshotIsDelta(data []byte) bool {
	s, err := decodeInstanceSnapshot(data)
	return err == nil && s.DeltaBase > 0
}

// FileLinkingStore is an optional SnapshotStore extension for checkpoints
// that reference immutable backend files (SSTable reuse): LinkFile publishes
// an existing file into the checkpoint — by hard link when possible, so
// unchanged files cost zero bytes — and LinkedPath resolves it at restore.
type FileLinkingStore interface {
	// LinkFile publishes src under (checkpointID, name). name is
	// store-relative ("<instanceID>/<basename>").
	LinkFile(checkpointID int64, name, src string) error
	// LinkedPath returns a local path for a previously linked file.
	LinkedPath(checkpointID int64, name string) (string, error)
}

// ErrFileLinkUnsupported is returned by stores (or store wrappers) that
// cannot link local files; callers fall back to embedding file bytes in the
// instance snapshot.
var ErrFileLinkUnsupported = fmt.Errorf("core: snapshot store does not support file links")

func encodeInstanceSnapshot(s instanceSnapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("core: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeInstanceSnapshot(data []byte) (instanceSnapshot, error) {
	var s instanceSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return s, fmt.Errorf("core: decode snapshot: %w", err)
	}
	return s, nil
}

// lineage is the checkpoint policy both snapshot stores apply: every
// completed checkpoint, ascending by ID.
type lineage []CheckpointMeta

// find returns the completed checkpoint with the given ID.
func (l lineage) find(cp int64) (CheckpointMeta, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].ID >= cp })
	if i < len(l) && l[i].ID == cp {
		return l[i], true
	}
	return CheckpointMeta{}, false
}

// collectible reports whether a checkpoint's data may go once the store
// retains the newest n completed checkpoints (n <= 0 keeps everything): it
// is older than all of them, aborted leftovers included, and no retained
// delta depends on it through its parent chain.
func (l lineage) collectible(n int) func(cp int64) bool {
	if n <= 0 || len(l) == 0 {
		return func(int64) bool { return false }
	}
	kept := l[max(len(l)-n, 0):]
	keep := make(map[int64]bool)
	for _, m := range kept {
		for cp := m.Parent; cp != 0 && !keep[cp]; {
			keep[cp] = true
			parent, ok := l.find(cp)
			if !ok {
				break
			}
			cp = parent.Parent
		}
	}
	floor := kept[0].ID
	return func(cp int64) bool { return cp < floor && !keep[cp] }
}

// latest returns the newest completed checkpoint whose whole chain is
// restorable: each link is completed, strictly older than its child (which
// also bounds the walk on corrupt lineage) and intact. intact is asked
// newest first and only as far as the answer needs, so a store that checks
// files on disk reads no more than that.
func (l lineage) latest(intact func(CheckpointMeta) bool) (CheckpointMeta, bool) {
	for i := len(l) - 1; i >= 0; i-- {
		for m := l[i]; intact(m); {
			if m.Parent == 0 {
				return l[i], true
			}
			parent, ok := l.find(m.Parent)
			if !ok || parent.ID >= m.ID {
				break
			}
			m = parent
		}
	}
	return CheckpointMeta{}, false
}

// MemorySnapshotStore keeps checkpoints on the heap.
type MemorySnapshotStore struct {
	mu        sync.Mutex
	data      map[int64]map[string][]byte
	completed []CheckpointMeta
	retain    int // completed checkpoints whose data is kept; 0 = unlimited
}

// NewMemorySnapshotStore returns an empty store.
func NewMemorySnapshotStore() *MemorySnapshotStore {
	return &MemorySnapshotStore{data: make(map[int64]map[string][]byte)}
}

// SetRetain bounds how many completed checkpoints keep their snapshot data:
// completing a checkpoint frees the data of everything subsumed beyond the
// newest n (metadata stays, so Completed still reports history). n <= 0 keeps
// everything.
func (s *MemorySnapshotStore) SetRetain(n int) {
	s.mu.Lock()
	s.retain = n
	s.mu.Unlock()
}

// Save implements SnapshotStore.
func (s *MemorySnapshotStore) Save(cp int64, instanceID string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data[cp] == nil {
		s.data[cp] = make(map[string][]byte)
	}
	s.data[cp][instanceID] = append([]byte(nil), data...)
	return nil
}

// Load implements SnapshotStore.
func (s *MemorySnapshotStore) Load(cp int64, instanceID string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.data[cp]
	if m == nil {
		return nil, fmt.Errorf("core: checkpoint %d not found", cp)
	}
	d, ok := m[instanceID]
	if !ok {
		return nil, fmt.Errorf("core: checkpoint %d has no snapshot for %q", cp, instanceID)
	}
	return d, nil
}

// Complete implements SnapshotStore. A delta checkpoint (Parent != 0) is
// rejected unless its parent is itself completed: a delta whose base can
// never be resolved is unrestorable by construction.
func (s *MemorySnapshotStore) Complete(meta CheckpointMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if meta.Parent != 0 {
		if _, ok := lineage(s.completed).find(meta.Parent); !ok {
			return fmt.Errorf("core: complete checkpoint %d: parent %d is not a completed checkpoint",
				meta.ID, meta.Parent)
		}
	}
	s.completed = append(s.completed, meta)
	// Keep completions ordered by checkpoint ID so Latest and the GC floor
	// stay correct even when Complete calls arrive out of order.
	if n := len(s.completed); n > 1 && s.completed[n-2].ID > meta.ID {
		sort.Slice(s.completed, func(i, j int) bool { return s.completed[i].ID < s.completed[j].ID })
	}
	collectible := lineage(s.completed).collectible(s.retain)
	for cp := range s.data {
		if collectible(cp) {
			delete(s.data, cp)
		}
	}
	return nil
}

// Discard implements DiscardableStore.
func (s *MemorySnapshotStore) Discard(cp int64) error {
	s.mu.Lock()
	delete(s.data, cp)
	s.mu.Unlock()
	return nil
}

// Latest implements SnapshotStore: the newest checkpoint whose whole chain
// still has its instance data (see lineage.latest).
func (s *MemorySnapshotStore) Latest() (CheckpointMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return lineage(s.completed).latest(func(meta CheckpointMeta) bool {
		for _, id := range meta.InstanceIDs {
			if _, ok := s.data[meta.ID][id]; !ok {
				return false
			}
		}
		return true
	})
}

// Completed returns all completed checkpoint metadata in order.
func (s *MemorySnapshotStore) Completed() []CheckpointMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]CheckpointMeta(nil), s.completed...)
}

// Instances implements SnapshotStore.
func (s *MemorySnapshotStore) Instances(cp int64) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.data[cp]
	if m == nil {
		return nil, fmt.Errorf("core: checkpoint %d not found", cp)
	}
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

var _ SnapshotStore = (*MemorySnapshotStore)(nil)
var _ DiscardableStore = (*MemorySnapshotStore)(nil)

// Snapshot files are framed so a torn write is detectable on read:
//
//	magic "SNP1" | crc32(payload) | len(payload) | payload
//
// The frame is belt-and-braces on top of the atomic temp+rename commit: a
// crash can only leave garbage under the reserved _tmp- prefix, but the
// checksum also catches truncation or corruption that reached the final name
// through lower layers (or a fault injector).
const snapMagic = "SNP1"

const snapHeaderLen = 4 + 4 + 8

var errTornSnapshot = fmt.Errorf("core: torn or corrupt snapshot file")

func frameSnapshot(data []byte) []byte {
	out := make([]byte, snapHeaderLen+len(data))
	copy(out, snapMagic)
	binary.BigEndian.PutUint32(out[4:], crc32.ChecksumIEEE(data))
	binary.BigEndian.PutUint64(out[8:], uint64(len(data)))
	copy(out[snapHeaderLen:], data)
	return out
}

func unframeSnapshot(raw []byte) ([]byte, error) {
	if len(raw) < snapHeaderLen || string(raw[:4]) != snapMagic {
		return nil, errTornSnapshot
	}
	n := binary.BigEndian.Uint64(raw[8:])
	if uint64(len(raw)-snapHeaderLen) != n {
		return nil, errTornSnapshot
	}
	payload := raw[snapHeaderLen:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[4:]) {
		return nil, errTornSnapshot
	}
	return payload, nil
}

// tmpPrefix reserves a file-name namespace for in-flight writes; encoded
// instance IDs can never start with '_' (it is percent-escaped), so store
// bookkeeping files ("_meta", "_tmp-*") never collide with instance files.
const tmpPrefix = "_tmp-"

const metaFile = "_meta"

// encodeInstanceFile maps an arbitrary instance ID to a safe file name:
// bytes outside [A-Za-z0-9.-] are percent-escaped (so path separators,
// '_' and '%' never appear raw), and the path-special names "." and ".."
// are fully escaped.
func encodeInstanceFile(id string) string {
	var b strings.Builder
	b.Grow(len(id))
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	if n := b.String(); n != "." && n != ".." {
		return n
	}
	var all strings.Builder
	for i := 0; i < len(id); i++ {
		fmt.Fprintf(&all, "%%%02X", id[i])
	}
	return all.String()
}

// decodeInstanceFile inverts encodeInstanceFile.
func decodeInstanceFile(name string) string {
	if !strings.ContainsRune(name, '%') {
		return name
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		if name[i] == '%' && i+2 < len(name) {
			var v int
			if _, err := fmt.Sscanf(name[i+1:i+3], "%02X", &v); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(name[i])
	}
	return b.String()
}

// FileSnapshotStore persists checkpoints as files under a directory:
// <dir>/chk-<id>/<encoded instanceID> plus a _meta file committed last. It
// survives process restarts — and, because every file is committed via
// temp+fsync+rename with the _meta written only after all snapshots are
// verified on disk, it survives crashes at any point: a partially written
// checkpoint is invisible to Latest and gets garbage-collected.
type FileSnapshotStore struct {
	dir    string
	mu     sync.Mutex
	retain int // completed checkpoints kept on disk; 0 = unlimited
}

// NewFileSnapshotStore creates the directory if needed and sweeps stray
// temp files a previous crash may have left behind.
func NewFileSnapshotStore(dir string) (*FileSnapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: snapshot dir: %w", err)
	}
	s := &FileSnapshotStore{dir: dir}
	s.sweepTmp()
	return s, nil
}

// SetRetain bounds how many completed checkpoints are kept: completing a
// checkpoint deletes everything subsumed beyond the newest n, including
// never-completed (aborted) checkpoint directories older than the newest
// completed one. n <= 0 keeps everything.
func (s *FileSnapshotStore) SetRetain(n int) {
	s.mu.Lock()
	s.retain = n
	s.mu.Unlock()
}

// sweepTmp removes in-flight temp files from every checkpoint directory;
// they are torn by construction (the rename never happened).
func (s *FileSnapshotStore) sweepTmp() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "chk-") {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, e.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				os.Remove(filepath.Join(s.dir, e.Name(), f.Name()))
			}
		}
	}
}

func (s *FileSnapshotStore) cpDir(cp int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("chk-%d", cp))
}

// filesDir is the subdirectory of a checkpoint holding linked backend files
// (SSTable reuse). Instances skips it: it is store bookkeeping, not an
// instance snapshot.
func (s *FileSnapshotStore) filesDir(cp int64) string {
	return filepath.Join(s.cpDir(cp), "files")
}

// linkedFilePath resolves a Files entry ("<instanceID>/<basename>") inside a
// checkpoint's files dir. The instance prefix is percent-encoded into one
// directory segment (instance IDs may contain anything); the basename is kept
// verbatim, because a backend adopting the file at restore identifies it by
// its original name.
func (s *FileSnapshotStore) linkedFilePath(cp int64, name string) (string, error) {
	i := strings.LastIndexByte(name, '/')
	if i < 0 {
		return "", fmt.Errorf("core: linked file name %q has no instance prefix", name)
	}
	prefix, base := name[:i], name[i+1:]
	if base == "" || base == "." || base == ".." ||
		strings.ContainsAny(base, `/\`) || strings.HasPrefix(base, tmpPrefix) {
		return "", fmt.Errorf("core: unsafe linked file name %q", name)
	}
	return filepath.Join(s.filesDir(cp), encodeInstanceFile(prefix), base), nil
}

// LinkFile implements FileLinkingStore: src is published into the checkpoint
// by hard link when possible (zero bytes for unchanged SSTables shared with
// earlier checkpoints), fsynced copy otherwise.
func (s *FileSnapshotStore) LinkFile(cp int64, name, src string) error {
	dst, err := s.linkedFilePath(cp, name)
	if err != nil {
		return err
	}
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: snapshot files dir: %w", err)
	}
	if err := os.Link(src, dst); err != nil {
		// Cross-device or an existing stale link from a retried save: copy
		// through the atomic commit path instead.
		os.Remove(dst)
		if err := os.Link(src, dst); err != nil {
			data, rerr := os.ReadFile(src)
			if rerr != nil {
				return fmt.Errorf("core: link snapshot file: %w", rerr)
			}
			if err := commitFile(dir, filepath.Base(dst), data); err != nil {
				return err
			}
			return nil
		}
	}
	return syncDir(dir)
}

// LinkedPath implements FileLinkingStore.
func (s *FileSnapshotStore) LinkedPath(cp int64, name string) (string, error) {
	path, err := s.linkedFilePath(cp, name)
	if err != nil {
		return "", err
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		return "", fmt.Errorf("core: checkpoint %d has no linked file %q", cp, name)
	}
	return path, nil
}

// verifyLinkedFile checks a Files entry exists with content.
func (s *FileSnapshotStore) verifyLinkedFile(cp int64, name string) error {
	path, err := s.linkedFilePath(cp, name)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return errTornSnapshot
	}
	return nil
}

// commitFile atomically publishes data under dir/name: write to a reserved
// temp name, fsync, rename, fsync the directory. A crash at any point leaves
// either the old content (or nothing) or the complete new content — never a
// prefix.
func commitFile(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, tmpPrefix+name)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("core: snapshot tmp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: snapshot rename: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed or just-linked entry survives a
// crash. The previous best-effort version silently dropped the Sync error,
// which let a checkpoint be acknowledged while its directory entry could still
// vanish on power loss — exactly the torn-snapshot case the commit protocol
// exists to rule out.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("core: open dir for fsync: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("core: fsync dir: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("core: close dir after fsync: %w", err)
	}
	return nil
}

// Save implements SnapshotStore.
func (s *FileSnapshotStore) Save(cp int64, instanceID string, data []byte) error {
	dir := s.cpDir(cp)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: snapshot dir: %w", err)
	}
	return commitFile(dir, encodeInstanceFile(instanceID), frameSnapshot(data))
}

// Load implements SnapshotStore. It validates the frame checksum, so a torn
// or corrupt snapshot surfaces as an error instead of decoding garbage.
func (s *FileSnapshotStore) Load(cp int64, instanceID string) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(s.cpDir(cp), encodeInstanceFile(instanceID)))
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %d has no snapshot for %q: %w", cp, instanceID, err)
	}
	payload, err := unframeSnapshot(raw)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %d snapshot for %q: %w", cp, instanceID, err)
	}
	return payload, nil
}

// verifyInstanceFile checks that the snapshot for instanceID exists and its
// frame is structurally whole (magic + declared length), without paying a
// full checksum read.
func (s *FileSnapshotStore) verifyInstanceFile(cp int64, instanceID string) error {
	path := filepath.Join(s.cpDir(cp), encodeInstanceFile(instanceID))
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return errTornSnapshot
	}
	if string(hdr[:4]) != snapMagic {
		return errTornSnapshot
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if uint64(st.Size())-snapHeaderLen != binary.BigEndian.Uint64(hdr[8:]) {
		return errTornSnapshot
	}
	return nil
}

// Complete implements SnapshotStore. It verifies every snapshot the metadata
// claims is durably on disk, then commits _meta atomically — so a checkpoint
// visible through Latest is guaranteed restorable.
func (s *FileSnapshotStore) Complete(meta CheckpointMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if meta.Parent != 0 {
		if _, err := s.readMeta(fmt.Sprintf("chk-%d", meta.Parent)); err != nil {
			return fmt.Errorf("core: complete checkpoint %d: parent %d is not a completed checkpoint: %w",
				meta.ID, meta.Parent, err)
		}
	}
	for _, id := range meta.InstanceIDs {
		if err := s.verifyInstanceFile(meta.ID, id); err != nil {
			return fmt.Errorf("core: complete checkpoint %d: instance %q: %w", meta.ID, id, err)
		}
	}
	for _, name := range meta.Files {
		if err := s.verifyLinkedFile(meta.ID, name); err != nil {
			return fmt.Errorf("core: complete checkpoint %d: linked file %q: %w", meta.ID, name, err)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(meta); err != nil {
		return fmt.Errorf("core: encode checkpoint meta: %w", err)
	}
	dir := s.cpDir(meta.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: snapshot dir: %w", err)
	}
	if err := commitFile(dir, metaFile, frameSnapshot(buf.Bytes())); err != nil {
		return err
	}
	s.gcLocked()
	return nil
}

// gcLocked deletes the checkpoint directories the retention policy lets go
// (see lineage.collectible), aborted ones included. Requires s.mu.
func (s *FileSnapshotStore) gcLocked() {
	if s.retain <= 0 {
		return
	}
	completed, ids := s.scanLocked()
	collectible := completed.collectible(s.retain)
	for _, id := range ids {
		if collectible(id) {
			os.RemoveAll(s.cpDir(id))
		}
	}
}

// scanLocked lists the store's checkpoint directories: the completed ones
// (a _meta that decodes), ascending by ID, and the IDs of all of them,
// completed or not. Requires s.mu.
func (s *FileSnapshotStore) scanLocked() (lineage, []int64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil
	}
	var completed lineage
	var ids []int64
	for _, e := range entries {
		var id int64
		if _, err := fmt.Sscanf(e.Name(), "chk-%d", &id); err != nil {
			continue
		}
		ids = append(ids, id)
		if meta, err := s.readMeta(e.Name()); err == nil {
			completed = append(completed, meta)
		}
	}
	sort.Slice(completed, func(i, j int) bool { return completed[i].ID < completed[j].ID })
	return completed, ids
}

// Discard implements DiscardableStore.
func (s *FileSnapshotStore) Discard(cp int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.RemoveAll(s.cpDir(cp))
}

// readMeta decodes a checkpoint's _meta, failing on torn frames.
func (s *FileSnapshotStore) readMeta(cpDirName string) (CheckpointMeta, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, cpDirName, metaFile))
	if err != nil {
		return CheckpointMeta{}, err
	}
	payload, err := unframeSnapshot(raw)
	if err != nil {
		return CheckpointMeta{}, err
	}
	var meta CheckpointMeta
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&meta); err != nil {
		return CheckpointMeta{}, err
	}
	return meta, nil
}

// Latest implements SnapshotStore. Incomplete, torn or unverifiable
// checkpoints are skipped, so the returned checkpoint is always restorable:
// every file of every link of its chain exists with an intact frame (see
// lineage.latest).
func (s *FileSnapshotStore) Latest() (CheckpointMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	completed, _ := s.scanLocked()
	return completed.latest(s.verifyCheckpointLocked)
}

// verifyCheckpointLocked checks one checkpoint's own files (instances plus
// linked backend files). Requires s.mu.
func (s *FileSnapshotStore) verifyCheckpointLocked(meta CheckpointMeta) bool {
	for _, id := range meta.InstanceIDs {
		if err := s.verifyInstanceFile(meta.ID, id); err != nil {
			return false
		}
	}
	for _, name := range meta.Files {
		if err := s.verifyLinkedFile(meta.ID, name); err != nil {
			return false
		}
	}
	return true
}

// Instances implements SnapshotStore. Store bookkeeping files (_meta,
// in-flight temps) are never reported.
func (s *FileSnapshotStore) Instances(cp int64) ([]string, error) {
	entries, err := os.ReadDir(s.cpDir(cp))
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %d not found: %w", cp, err)
	}
	var ids []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "_") || e.IsDir() {
			continue
		}
		ids = append(ids, decodeInstanceFile(e.Name()))
	}
	sort.Strings(ids)
	return ids, nil
}

var _ SnapshotStore = (*FileSnapshotStore)(nil)
var _ DiscardableStore = (*FileSnapshotStore)(nil)
var _ FileLinkingStore = (*FileSnapshotStore)(nil)
