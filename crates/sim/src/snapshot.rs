//! Versioned, dependency-free binary serialization of simulation state.
//!
//! A *snapshot* is the byte-exact dynamic state of a paused simulation:
//! every component's internal queues and statistics and the engine's
//! event wheel and in-flight messages. What observes a run (the tracer,
//! link sampling) is not state and is not in it. The encoding is little-endian, length-prefixed where variable, and fully
//! deterministic — the same paused state always encodes to the same
//! bytes, so `fnv1a64` over the encoding is a cheap state fingerprint
//! (see [`crate::Engine::state_hash`]).
//!
//! The format is versioned: every snapshot file starts with
//! [`SNAPSHOT_MAGIC`] and [`SNAPSHOT_VERSION`], and a reader rejects a
//! mismatch loudly instead of deserializing garbage state (see
//! DESIGN.md §3.4).
//!
//! Serialization is structured around the [`Snap`] trait (implemented
//! here for primitives, standard containers and the `proto` data types)
//! plus the [`crate::Component::save_state`]/
//! [`crate::Component::load_state`] pair that every snapshottable
//! component implements. Structs and enums do not write those pairs by
//! hand: [`snap_fields!`](crate::snap_fields) takes the field or tag list
//! once and generates every direction from it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use netcrafter_proto::ids::IdAlloc;
use netcrafter_proto::message::Origin;
use netcrafter_proto::packet::{PacketPayload, TrimInfo};
use netcrafter_proto::{
    AccessId, Chunk, ClusterId, CuId, Flit, GpuId, Histogram, LatencyStat, LineAddr, LineMask,
    MemReq, MemRsp, Message, NodeId, PAddr, Packet, PacketId, PacketKind, TrafficClass, TransReq,
    TransRsp,
};

/// First four bytes of every snapshot: `"NCSP"` as a little-endian u32.
pub const SNAPSHOT_MAGIC: u32 = 0x5053_434E;

/// Current snapshot format version. Bump whenever the encoding of any
/// serialized structure changes; old snapshots then fail loudly with
/// [`SnapshotError::VersionMismatch`] instead of restoring garbage.
pub const SNAPSHOT_VERSION: u32 = 11;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`SNAPSHOT_MAGIC`] — not a
    /// snapshot at all, or corrupted at the very start.
    BadMagic(u32),
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The buffer ended before the value being read was complete.
    Truncated {
        /// Byte offset at which the read started.
        offset: usize,
        /// Bytes the read needed.
        wanted: usize,
    },
    /// The bytes decoded, but the value they describe is invalid (bad
    /// enum tag, component-name mismatch, malformed embedded text, …).
    Corrupt(String),
    /// A well-formed snapshot of a different run: another configuration,
    /// workload, scale or seed.
    WrongRun {
        /// Run id the snapshot carries.
        found: u64,
        /// Run id of the node it was restored into.
        expected: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic(found) => {
                write!(
                    f,
                    "not a snapshot: magic {found:#010x} (expected {SNAPSHOT_MAGIC:#010x})"
                )
            }
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot version mismatch: file has v{found}, this build reads v{expected}; \
                 re-create the checkpoint with the current binary"
            ),
            SnapshotError::Truncated { offset, wanted } => {
                write!(
                    f,
                    "snapshot truncated: needed {wanted} byte(s) at offset {offset}"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::WrongRun { found, expected } => write!(
                f,
                "snapshot is of another run: it carries run id {found:016x}, this run is {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    /// Names the component (or part) whose state was being decoded when
    /// the bytes turned out invalid.
    pub fn within(self, what: &str) -> Self {
        match self {
            SnapshotError::Corrupt(why) => SnapshotError::Corrupt(format!("{what}: {why}")),
            other => other,
        }
    }
}

/// Append-only little-endian encoder for snapshot bytes.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a u64 (lengths, counts).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian decoder over a snapshot byte slice.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                offset: self.pos,
                wanted: n,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes(
            b.try_into().expect("take returned 2 bytes"),
        ))
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(
            b.try_into().expect("take returned 4 bytes"),
        ))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(
            b.try_into().expect("take returned 8 bytes"),
        ))
    }

    /// Reads a length/count written by [`SnapshotWriter::put_len`],
    /// rejecting values that could not possibly fit in the remaining
    /// buffer (guards allocations against corrupt length fields).
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        let n = usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("length {v} exceeds address space")))?;
        if n > self.remaining().saturating_mul(8).saturating_add(8) {
            return Err(SnapshotError::Corrupt(format!(
                "length {n} at offset {} larger than the rest of the snapshot",
                self.pos
            )));
        }
        Ok(n)
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.get_len()?;
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                offset: self.pos,
                wanted: n,
            });
        }
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| SnapshotError::Corrupt(format!("non-UTF-8 string: {e}")))
    }
}

/// Writes the snapshot file header (magic + version).
pub fn write_header(w: &mut SnapshotWriter) {
    w.put_u32(SNAPSHOT_MAGIC);
    w.put_u32(SNAPSHOT_VERSION);
}

/// Reads and validates the snapshot file header, failing loudly on a
/// foreign file or a version mismatch.
pub fn read_header(r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
    let magic = r.get_u32()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = r.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    Ok(())
}

/// An in-memory snapshot taken to *fork* a paused simulation: one prefix
/// execution amortized across N divergent continuations.
///
/// The bytes are a complete versioned snapshot (header included, exactly
/// what [`crate::Engine::save_snapshot`] / a system-level saver emits)
/// behind an `Arc`, so handing a fork to N children is N pointer clones —
/// no disk round-trip and no buffer copies. `state_hash` fingerprints the
/// snapshot *body* at the moment the fork was taken: two runs paused in
/// the same state carry the same hash, and a system restored from the
/// bytes hashes to it before it steps.
///
/// A fork lives in memory and dies with the process; the one place that
/// writes its bytes to a file is `simulate --checkpoint-at`.
#[derive(Debug, Clone)]
pub struct ForkSnapshot {
    cycle: u64,
    bytes: Arc<Vec<u8>>,
    state_hash: u64,
}

impl ForkSnapshot {
    /// Wraps freshly serialized snapshot bytes taken at `cycle`.
    pub fn new(cycle: u64, bytes: Vec<u8>, state_hash: u64) -> Self {
        Self {
            cycle,
            bytes: Arc::new(bytes),
            state_hash,
        }
    }

    /// Cycle the forked simulation was paused at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The full snapshot encoding (header + body).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// FNV-1a fingerprint of the paused state's canonical body encoding.
    pub fn state_hash(&self) -> u64 {
        self.state_hash
    }
}

/// A value with a canonical binary snapshot encoding.
///
/// `load(save(x)) == x` for every observable aspect of the value; the
/// encoding itself is deterministic, so it doubles as hashing input.
pub trait Snap: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn save(&self, w: &mut SnapshotWriter);

    /// Decodes a value previously written by [`Snap::save`].
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;

    /// Decodes the same bytes into an existing value. Restore always
    /// goes through this method, so a type whose fresh construction is
    /// expensive (a tag array with one `Vec` per set) overrides it to
    /// reuse its allocations and every owner benefits without knowing.
    fn load_into(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = Self::load(r)?;
        Ok(())
    }
}

/// Generates a struct's snapshot code from **one** list of its fields.
///
/// Every field is named exactly once, in the order its bytes appear in
/// the snapshot, and every direction (save, decode, restore in place)
/// is generated from that one list — so the directions cannot drift
/// apart. Both generated halves destructure `Self { .. }` without a
/// rest pattern: a field that is added to the struct and not listed
/// here **does not compile**.
///
/// # Value types
///
/// At item level, `impl Snap for T { a, b, c }` implements [`Snap`] for
/// a struct whose fields are all `Snap`: `save`, `load`, and a
/// field-wise [`Snap::load_into`], so a nested field with an in-place
/// restore (a tag store) keeps it. Attributes (doc comments) in front
/// of the `impl` land on it. An optional `validate path::to::fn`
/// names a `fn(&mut T) -> Result<(), SnapshotError>` (or `fn(&T)`) that
/// runs on the decoded value before it is returned.
///
/// ```
/// use netcrafter_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Cursor {
///     items: Vec<u64>,
///     next: usize,
/// }
///
/// impl Cursor {
///     fn check(&self) -> Result<(), SnapshotError> {
///         if self.next > self.items.len() {
///             return Err(SnapshotError::Corrupt("cursor past the end".to_string()));
///         }
///         Ok(())
///     }
/// }
///
/// netcrafter_sim::snap_fields! {
///     impl Snap for Cursor { items, next }
///     validate Cursor::check
/// }
///
/// let cursor = Cursor { items: vec![7, 8], next: 1 };
/// let mut w = SnapshotWriter::new();
/// cursor.save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(Cursor::load(&mut SnapshotReader::new(&bytes)).unwrap(), cursor);
/// ```
///
/// # Stateful types
///
/// Components, queues and caches also hold wiring and configuration
/// that the restore target already has, so they cannot be decoded from
/// nothing: they save, and restore *into* an identically built
/// instance. Inside an `impl` block, `[pub] fn SAVE + LOAD { .. }`
/// emits that method pair under the given names (`save_state` +
/// `load_state` for a [`crate::Component`]; `save` + `load_into`,
/// the names [`Snap`] uses, for a part owned by one). Each field is
/// classified:
///
/// * `field` — persisted through its own `save` / `load_into` (a
///   [`Snap`] value or a stateful part with methods of those names);
/// * `field: fixed` — a sequence whose length is structure, not state
///   (a switch's ports, a cache's banks): a length prefix that must
///   match the target, then each element in place;
/// * `field: skipped(why)` — not in the snapshot, with the reason:
///   `wiring` (who this instance is and what it is connected to),
///   `config` (builder-time parameters), `derived` (recomputed by the
///   `validate` hook), `scratch` (meaningless between ticks) or
///   `observer` (what a run records about itself, not simulated state).
///
/// An optional `validate path::to::fn`, as for value types, runs on
/// `self` after the last field — post-decode checks and derived-state
/// rebuilds stay ordinary code there.
///
/// ```
/// use netcrafter_sim::snapshot::{SnapshotReader, SnapshotWriter};
///
/// struct Counter {
///     limit: u64,
///     ticks: u64,
///     sum: u64,
/// }
///
/// impl Counter {
///     netcrafter_sim::snap_fields! {
///         pub fn save + load_into {
///             limit: skipped(config),
///             ticks,
///             sum,
///         }
///     }
/// }
///
/// let mut w = SnapshotWriter::new();
/// Counter { limit: 9, ticks: 3, sum: 12 }.save(&mut w);
/// let bytes = w.into_bytes();
/// let mut fresh = Counter { limit: 9, ticks: 0, sum: 0 };
/// fresh.load_into(&mut SnapshotReader::new(&bytes)).unwrap();
/// assert_eq!((fresh.ticks, fresh.sum), (3, 12));
/// ```
///
/// # Enums
///
/// `enum T { TAG => Variant, .. }` implements [`Snap`] for an enum from
/// one tag list: a `u8` tag, then the variant's fields in the order
/// named — `Unit`, `Tuple(a, b)` (binding names for the positional
/// fields) or `Struct { x, y }`. Loading an unlisted tag fails
/// `Corrupt("T tag N")`. A variant left out of the list does not compile
/// (the generated `save` match is not exhaustive). `enum T<U>` takes one
/// type parameter, bounded by [`Snap`].
///
/// ```
/// use netcrafter_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};
///
/// #[derive(Debug, PartialEq)]
/// enum Step {
///     Idle,
///     Move(u32, u32),
///     Wait { until: u64 },
/// }
///
/// netcrafter_sim::snap_fields! {
///     enum Step { 0 => Idle, 1 => Move(dx, dy), 2 => Wait { until } }
/// }
///
/// let mut w = SnapshotWriter::new();
/// Step::Wait { until: 9 }.save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(Step::load(&mut SnapshotReader::new(&bytes)).unwrap(), Step::Wait { until: 9 });
/// ```
///
/// The same struct with `sum` left out of the list is rejected by the
/// compiler, at the invocation: E0027 "pattern does not mention field
/// `sum`", or — for a private field seen from another crate's macro, as
/// here — "pattern requires `..` due to inaccessible fields". Either
/// way the fix is to classify the new field.
///
/// ```compile_fail
/// struct Counter {
///     limit: u64,
///     ticks: u64,
///     sum: u64,
/// }
///
/// impl Counter {
///     netcrafter_sim::snap_fields! {
///         pub fn save + load_into {
///             limit: skipped(config),
///             ticks,
///         }
///     }
/// }
/// ```
#[macro_export]
macro_rules! snap_fields {
    (
        $(#[$attr:meta])*
        impl $(<$($g:ident : $bound:path),+>)? Snap for $ty:ty {
            $($field:ident),* $(,)?
        }
        $(validate $check:path)?
    ) => {
        $(#[$attr])*
        impl $(<$($g: $bound),+>)? $crate::snapshot::Snap for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                let Self { $($field),* } = self;
                $($crate::snapshot::Snap::save($field, w);)*
            }

            fn load(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                #[allow(unused_mut)]
                let mut value = Self {
                    $($field: $crate::snapshot::Snap::load(r)?),*
                };
                $($check(&mut value)?;)?
                Ok(value)
            }

            fn load_into(
                &mut self,
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                let Self { $($field),* } = self;
                $($crate::snapshot::Snap::load_into($field, r)?;)*
                $($check(self)?;)?
                Ok(())
            }
        }
    };
    (
        $(#[$attr:meta])*
        enum $ty:ident $(<$g:ident>)? {
            $($tag:literal => $variant:ident
                $(($($tf:ident),* $(,)?))?
                $({$($sf:ident),* $(,)?})?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        impl $(<$g: $crate::snapshot::Snap>)? $crate::snapshot::Snap for $ty $(<$g>)? {
            fn save(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                match self {
                    $(Self::$variant $(($($tf),*))? $({$($sf),*})? => {
                        w.put_u8($tag);
                        $($($crate::snapshot::Snap::save($tf, w);)*)?
                        $($($crate::snapshot::Snap::save($sf, w);)*)?
                    })*
                }
            }

            fn load(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                match r.get_u8()? {
                    $($tag => Ok(Self::$variant
                        $(($($crate::snap_fields!(@field r $tf)),*))?
                        $({$($sf: $crate::snapshot::Snap::load(r)?),*})?
                    ),)*
                    tag => Err($crate::snapshot::SnapshotError::Corrupt(format!(
                        "{} tag {tag}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
    (@field $r:ident $f:ident) => {
        $crate::snapshot::Snap::load($r)?
    };
    (
        $vis:vis fn $save:ident + $load:ident {
            $($field:ident $(: $kind:ident $(($why:ident))?)?),* $(,)?
        }
        $(validate $check:path)?
    ) => {
        /// Appends the dynamic state (the fields `snap_fields!` lists as
        /// persisted, in list order) to `w`.
        $vis fn $save(&self, w: &mut $crate::snapshot::SnapshotWriter) {
            #[allow(unused_imports)]
            use $crate::snapshot::Snap as _;
            let Self { $($field),* } = self;
            $($crate::snap_fields!(@save w $field $($kind $(($why))?)?);)*
        }

        /// Restores the state its save twin wrote into this, identically
        /// built, instance.
        $vis fn $load(
            &mut self,
            r: &mut $crate::snapshot::SnapshotReader<'_>,
        ) -> Result<(), $crate::snapshot::SnapshotError> {
            #[allow(unused_imports)]
            use $crate::snapshot::Snap as _;
            let Self { $($field),* } = self;
            $($crate::snap_fields!(@load r $field $($kind $(($why))?)?);)*
            $($check(self)?;)?
            Ok(())
        }
    };
    (@save $w:ident $f:ident) => {
        $f.save($w);
    };
    (@load $r:ident $f:ident) => {
        $f.load_into($r)?;
    };
    (@save $w:ident $f:ident fixed) => {
        $w.put_len($f.len());
        for item in $f.iter() {
            item.save($w);
        }
    };
    (@load $r:ident $f:ident fixed) => {
        let n = $r.get_len()?;
        if n != $f.len() {
            return Err($crate::snapshot::SnapshotError::Corrupt(format!(
                "snapshot has {n} {}, the restore target has {}",
                stringify!($f),
                $f.len()
            )));
        }
        for item in $f.iter_mut() {
            item.load_into($r)?;
        }
    };
    (@$dir:ident $io:ident $f:ident skipped($why:ident)) => {
        $crate::snap_fields!(@reason $why);
        let _ = $f;
    };
    (@reason wiring) => {};
    (@reason config) => {};
    (@reason derived) => {};
    (@reason scratch) => {};
    (@reason observer) => {};
}

// ---- primitives ----

impl Snap for u8 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u8(*self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u8()
    }
}

impl Snap for u16 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u16(*self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u16()
    }
}

impl Snap for u32 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u32(*self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u32()
    }
}

impl Snap for u64 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(*self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_u64()
    }
}

impl Snap for usize {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_len(*self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let v = r.get_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("usize {v} exceeds address space")))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_bool(*self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_bool()
    }
}

impl Snap for () {
    fn save(&self, _w: &mut SnapshotWriter) {}
    fn load(_r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

/// Two `u64`s, low half first.
impl Snap for u128 {
    fn save(&self, w: &mut SnapshotWriter) {
        #[allow(clippy::cast_possible_truncation)] // the low half, by intent
        w.put_u64(*self as u64);
        w.put_u64(u64::try_from(*self >> 64).expect("the high half"));
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let low = u128::from(r.get_u64()?);
        Ok(low | u128::from(r.get_u64()?) << 64)
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_str()
    }
}

// ---- containers ----

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_len(self.len());
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_len(self.len());
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::<T>::load(r)?.into())
    }
}

snap_fields! { enum Option<T> { 0 => None, 1 => Some(value) } }

impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        self.as_ref().save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Box::new(T::load(r)?))
    }
}

/// A map is saved in ascending key order, so a key that does not ascend
/// is corruption: inserting it would overwrite an entry and restore a
/// smaller map without a word.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_len(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(SnapshotError::Corrupt(
                    "map keys not in ascending order".to_string(),
                ));
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapshotWriter) {
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::load(r)?);
        }
        items
            .try_into()
            .map_err(|_| SnapshotError::Corrupt("array length mismatch".to_string()))
    }
}

// ---- proto identifiers and addresses ----

macro_rules! snap_newtype {
    ($($ty:ty => $repr:ty),* $(,)?) => {
        $(impl Snap for $ty {
            fn save(&self, w: &mut SnapshotWriter) {
                self.0.save(w);
            }
            fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(Self(<$repr>::load(r)?))
            }
        })*
    };
}

snap_newtype!(
    GpuId => u16,
    ClusterId => u16,
    CuId => u16,
    NodeId => u16,
    AccessId => u64,
    PacketId => u64,
    PAddr => u64,
    LineAddr => u64,
    LineMask => u64,
);

impl<T: From<u64>> Snap for IdAlloc<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.issued());
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(IdAlloc::with_issued(r.get_u64()?))
    }
}

// ---- proto protocol types ----

snap_fields! { enum TrafficClass { 0 => Data, 1 => Ptw } }

impl Snap for PacketKind {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u8(u8::try_from(self.index()).expect("six packet kinds"));
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let tag = r.get_u8()?;
        netcrafter_proto::ALL_PACKET_KINDS
            .get(usize::from(tag))
            .copied()
            .ok_or_else(|| SnapshotError::Corrupt(format!("PacketKind tag {tag}")))
    }
}

snap_fields! { enum Origin { 0 => Cu(cu), 1 => Gmmu, 2 => Rdma, 3 => L2 } }

snap_fields! {
    impl Snap for MemReq {
        access, line, write, mask, sectors, class, requester, owner, origin,
    }
}

snap_fields! {
    impl Snap for MemRsp {
        access, line, write, sectors_valid, class, requester, owner, origin,
    }
}

snap_fields! { impl Snap for TransReq { access, vpn, cu } }

snap_fields! { impl Snap for TransRsp { access, vpn, pfn, cu } }

snap_fields! { impl Snap for TrimInfo { granularity, sector } }

snap_fields! { enum PacketPayload { 0 => Req(req), 1 => Rsp(rsp) } }

snap_fields! { impl Snap for Packet { id, kind, src, dst, payload_bytes, trim, inner } }

snap_fields! {
    impl Snap for Chunk {
        packet, kind, bytes, meta_bytes, has_header, is_tail, seq, dst, class, packet_info,
    }
}

snap_fields! { impl Snap for Flit { capacity, chunks, dst } }

snap_fields! {
    enum Message {
        0 => MemReq(req),
        1 => MemRsp(rsp),
        2 => TransReq(req),
        3 => TransRsp(rsp),
        4 => Flit { flit, from, link },
        5 => Credit { from, count, link },
    }
}

// ---- proto statistics types ----

snap_fields! { impl Snap for LatencyStat { count, sum, max } }

impl Snap for Histogram {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_len(self.iter().count());
        for (bucket, count) in self.iter() {
            w.put_u64(bucket);
            w.put_u64(count);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut out = Histogram::new();
        for _ in 0..n {
            let bucket = r.get_u64()?;
            let count = r.get_u64()?;
            out.add(bucket, count);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(value: &T) {
        let mut w = SnapshotWriter::new();
        value.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = T::load(&mut r).expect("round trip decodes");
        assert_eq!(&back, value);
        assert_eq!(r.remaining(), 0, "decoder consumed every byte");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&0xA5u8);
        round_trip(&0xBEEFu16);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&u64::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&(u128::from(u64::MAX) * 1_000_000_000_000_000_007));
        round_trip(&String::from("net.inter.flits"));
        round_trip(&String::new());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&VecDeque::from([7u32, 8, 9]));
        round_trip(&Some(42u64));
        round_trip(&Option::<u64>::None);
        round_trip(&Box::new(5u8));
        round_trip(&BTreeMap::from([(1u64, 2u64), (3, 4)]));
        round_trip(&(1u32, 2u64));
        round_trip(&(1u8, 2u16, 3u32));
        round_trip(&[5u64, 6, 7]);
    }

    #[test]
    fn maps_reject_keys_out_of_ascending_order() {
        // Inserting the repeated key would overwrite the earlier entry and
        // restore a one-entry map from a two-entry snapshot.
        for keys in [[3u64, 3], [5, 2]] {
            let mut w = SnapshotWriter::new();
            w.put_len(2);
            for k in keys {
                w.put_u64(k);
                w.put_u64(k * 10);
            }
            let bytes = w.into_bytes();
            let got: Result<BTreeMap<u64, u64>, _> = Snap::load(&mut SnapshotReader::new(&bytes));
            assert_eq!(
                got,
                Err(SnapshotError::Corrupt(
                    "map keys not in ascending order".to_string()
                )),
                "{keys:?}"
            );
        }
    }

    #[test]
    fn id_alloc_round_trip_preserves_next_id() {
        let mut alloc = IdAlloc::<AccessId>::new();
        alloc.next();
        alloc.next();
        let mut w = SnapshotWriter::new();
        alloc.save(&mut w);
        let bytes = w.into_bytes();
        let mut back: IdAlloc<AccessId> =
            Snap::load(&mut SnapshotReader::new(&bytes)).expect("decodes");
        assert_eq!(back.next(), AccessId(2));
    }

    fn sample_req() -> MemReq {
        MemReq {
            access: AccessId(5),
            line: LineAddr(0x40),
            write: false,
            mask: LineMask::span(0, 16),
            sectors: 0b1111,
            class: TrafficClass::Data,
            requester: GpuId(3),
            owner: GpuId(1),
            origin: Origin::Cu(2),
        }
    }

    #[test]
    fn messages_round_trip() {
        // Generated codecs: unit variants here, tuple and struct variants
        // (`MemReq`, `Credit`, `Flit`) below.
        round_trip(&Origin::Gmmu);
        round_trip(&TrafficClass::Ptw);
        round_trip(&Message::MemReq(sample_req()));
        round_trip(&Message::MemRsp(MemRsp::for_req(&sample_req(), 0b0001)));
        round_trip(&Message::TransReq(TransReq {
            access: AccessId(9),
            vpn: 0x123,
            cu: 4,
        }));
        round_trip(&Message::TransRsp(TransRsp {
            access: AccessId(9),
            vpn: 0x123,
            pfn: 0x456,
            cu: 4,
        }));
        round_trip(&Message::Credit {
            from: NodeId(3),
            count: 2,
            link: 5,
        });
        let packet = Packet {
            id: PacketId(7),
            kind: PacketKind::ReadRsp,
            src: NodeId(0),
            dst: NodeId(3),
            payload_bytes: 64,
            trim: Some(TrimInfo {
                granularity: 16,
                sector: 2,
            }),
            inner: PacketPayload::Rsp(MemRsp::for_req(&sample_req(), 0b1111)),
        };
        let chunk = Chunk {
            packet: PacketId(7),
            kind: PacketKind::ReadRsp,
            bytes: 4,
            meta_bytes: 2,
            has_header: false,
            is_tail: true,
            seq: 4,
            dst: NodeId(3),
            class: TrafficClass::Data,
            packet_info: Some(Box::new(packet)),
        };
        round_trip(&Message::Flit {
            flit: Flit {
                capacity: 16,
                chunks: vec![chunk],
                dst: NodeId(3),
            },
            from: NodeId(1),
            link: 2,
        });
    }

    #[test]
    fn stats_round_trip() {
        let mut lat = LatencyStat::default();
        lat.record(10);
        lat.record(30);
        round_trip(&lat);

        let mut hist = Histogram::new();
        hist.add(16, 2);
        hist.add(64, 1);
        round_trip(&hist);
        round_trip(&Histogram::new());
    }

    #[test]
    fn header_round_trip_and_version_gate() {
        let mut w = SnapshotWriter::new();
        write_header(&mut w);
        let good = w.into_bytes();
        assert!(read_header(&mut SnapshotReader::new(&good)).is_ok());

        // Wrong magic: a foreign file.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            read_header(&mut SnapshotReader::new(&bad_magic)),
            Err(SnapshotError::BadMagic(_))
        ));

        // Old version: must name both versions, not decode garbage.
        let mut old = SnapshotWriter::new();
        old.put_u32(SNAPSHOT_MAGIC);
        old.put_u32(SNAPSHOT_VERSION + 1);
        let err = read_header(&mut SnapshotReader::new(&old.into_bytes()))
            .expect_err("future version rejected");
        match err {
            SnapshotError::VersionMismatch { found, expected } => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn truncated_reads_fail_loudly() {
        let mut w = SnapshotWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..4]);
        assert!(matches!(
            r.get_u64(),
            Err(SnapshotError::Truncated {
                offset: 0,
                wanted: 8
            })
        ));
    }

    #[test]
    fn absurd_length_fields_are_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX); // claimed element count
        let bytes = w.into_bytes();
        let got: Result<Vec<u64>, _> = Snap::load(&mut SnapshotReader::new(&bytes));
        assert!(matches!(got, Err(SnapshotError::Corrupt(_))));
    }

    #[derive(Debug, PartialEq)]
    struct Lane {
        queued: Vec<u32>,
    }
    snap_fields! { impl Snap for Lane { queued } }

    struct Router {
        radix: usize,
        lanes: Vec<Lane>,
        seen: u64,
    }

    impl Router {
        fn new(radix: usize) -> Self {
            Router {
                radix,
                lanes: (0..radix).map(|_| Lane { queued: Vec::new() }).collect(),
                seen: 0,
            }
        }

        snap_fields! {
            fn save + load_into {
                radix: skipped(config),
                lanes: fixed,
                seen,
            }
        }
    }

    #[test]
    fn stateful_restore_is_in_place_and_checks_fixed_lengths() {
        let mut router = Router::new(2);
        router.lanes[1].queued.push(9);
        router.seen = 4;
        let mut w = SnapshotWriter::new();
        router.save(&mut w);
        let bytes = w.into_bytes();

        // Same shape: lanes restore in place.
        let mut twin = Router::new(2);
        twin.load_into(&mut SnapshotReader::new(&bytes))
            .expect("same shape restores");
        assert_eq!(twin.lanes, router.lanes);
        assert_eq!(twin.seen, 4);
        assert_eq!(twin.radix, 2);

        // A differently built target is a mismatch, not a resize.
        let err = Router::new(3)
            .load_into(&mut SnapshotReader::new(&bytes))
            .expect_err("lane count differs");
        assert_eq!(
            err,
            SnapshotError::Corrupt("snapshot has 2 lanes, the restore target has 3".to_string())
        );
    }

    #[test]
    fn bad_enum_tags_are_rejected() {
        fn tag_9<T: Snap + std::fmt::Debug>() -> SnapshotError {
            T::load(&mut SnapshotReader::new(&[9u8])).expect_err("tag 9 is unknown")
        }
        let corrupt = |what: &str| SnapshotError::Corrupt(format!("{what} tag 9"));
        assert_eq!(tag_9::<TrafficClass>(), corrupt("TrafficClass"));
        assert_eq!(tag_9::<Origin>(), corrupt("Origin"));
        assert_eq!(tag_9::<PacketPayload>(), corrupt("PacketPayload"));
        assert_eq!(tag_9::<Message>(), corrupt("Message"));
        assert_eq!(tag_9::<PacketKind>(), corrupt("PacketKind"));
        assert_eq!(tag_9::<Option<u8>>(), corrupt("Option"));
    }

    #[test]
    fn encoding_is_deterministic() {
        let msg = Message::MemReq(sample_req());
        let mut a = SnapshotWriter::new();
        msg.save(&mut a);
        let mut b = SnapshotWriter::new();
        msg.save(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }
}
