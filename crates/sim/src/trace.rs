//! Structured event tracing: zero-cost-when-off observability.
//!
//! A [`Tracer`] is owned by the engine and threaded through [`Ctx`] so any
//! component can emit structured events — flit arrivals, stitch/trim/
//! sequence decisions, MSHR fills, page-table walks, cache-miss lifetimes —
//! during its tick. When tracing is disabled every emit call is a single
//! predictable branch and **no allocation happens**; when enabled, events
//! accumulate in a flat buffer and are exported after the run as
//! Chrome-trace/Perfetto JSON ([`Trace::to_chrome_json`]).
//!
//! Output size is bounded by a [`TraceConfig`] filter: per-component
//! (substring match on the component name), per-event-class (see
//! [`EventClass`]), and by cycle range. The filter is resolved once per
//! track / once per tick, not per event.
//!
//! [`Ctx`]: crate::Ctx

use crate::Cycle;

/// Coarse event category, used both for filtering and as the Chrome-trace
/// `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventClass {
    /// Flit ingress/egress on switches and ports.
    Flit = 0,
    /// Stitching decisions (absorption, parent ejection, un-stitching).
    Stitch = 1,
    /// Selective flit pooling (side-slot residency and expiry).
    Pool = 2,
    /// Trimming decisions (sectored cross-cluster fills).
    Trim = 3,
    /// Sequencing decisions (PTW-priority service order).
    Seq = 4,
    /// MSHR allocate/merge/fill activity.
    Mshr = 5,
    /// Page-table walk lifetimes.
    Ptw = 6,
    /// Cache miss lifetimes (L1/L2).
    Cache = 7,
}

/// All event classes, in declaration order.
pub const ALL_CLASSES: [EventClass; 8] = [
    EventClass::Flit,
    EventClass::Stitch,
    EventClass::Pool,
    EventClass::Trim,
    EventClass::Seq,
    EventClass::Mshr,
    EventClass::Ptw,
    EventClass::Cache,
];

impl EventClass {
    /// Stable lower-case label (used in filters and JSON output).
    pub fn label(self) -> &'static str {
        match self {
            EventClass::Flit => "flit",
            EventClass::Stitch => "stitch",
            EventClass::Pool => "pool",
            EventClass::Trim => "trim",
            EventClass::Seq => "seq",
            EventClass::Mshr => "mshr",
            EventClass::Ptw => "ptw",
            EventClass::Cache => "cache",
        }
    }

    /// Parses a label produced by [`EventClass::label`].
    pub fn from_label(s: &str) -> Option<EventClass> {
        ALL_CLASSES.iter().copied().find(|c| c.label() == s)
    }

    #[inline]
    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// Event phase, mirroring the Chrome-trace phase field.
///
/// Miss/walk lifetimes use async begin/end (Chrome `b`/`e`) rather than
/// stack-scoped `B`/`E` because many same-named lifetimes overlap on one
/// track; async events are paired by `id` instead of nesting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A point-in-time event (Chrome `i`).
    Instant,
    /// Start of an async span (Chrome `b`), paired by `id`.
    Begin,
    /// End of an async span (Chrome `e`), paired by `id`.
    End,
}

impl Phase {
    fn chrome(self) -> char {
        match self {
            Phase::Instant => 'i',
            Phase::Begin => 'b',
            Phase::End => 'e',
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Emission cycle.
    pub cycle: Cycle,
    /// Track index (the emitting component; see [`Trace::tracks`]).
    pub track: u32,
    /// Event category.
    pub class: EventClass,
    /// Event phase.
    pub phase: Phase,
    /// Event name, e.g. `"flit.rx"` or `"ptw.walk"`.
    pub name: &'static str,
    /// Correlation id (packet id, access id, virtual page number, …);
    /// pairs `Begin`/`End` events.
    pub id: u64,
    /// Free payload (bytes, sector index, waiter count, …).
    pub value: u64,
}

/// Filter describing which events a [`Tracer`] keeps.
///
/// Parsed from the `--trace-filter` flag syntax: semicolon-separated
/// clauses `comp=<substr>,<substr>`, `class=<label>,<label>` and
/// `cycles=<first>..<last>`. An empty string (or absent clause) means
/// "everything".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Component-name substrings; a track is enabled if its name contains
    /// any of them. Empty = all components.
    pub components: Vec<String>,
    /// Bitmask over [`EventClass`] (`1 << class`).
    pub class_mask: u32,
    /// First cycle (inclusive) to record.
    pub first_cycle: Cycle,
    /// Last cycle (inclusive) to record.
    pub last_cycle: Cycle,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            components: Vec::new(),
            class_mask: u32::MAX,
            first_cycle: 0,
            last_cycle: Cycle::MAX,
        }
    }
}

impl TraceConfig {
    /// Parses the `--trace-filter` syntax, e.g.
    /// `"comp=switch,cu; class=flit,ptw; cycles=0..5000"`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on an unknown clause, unknown
    /// class label, or malformed cycle range.
    pub fn parse(spec: &str) -> Result<TraceConfig, String> {
        let mut cfg = TraceConfig::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| format!("trace filter clause `{clause}` is missing `=`"))?;
            match key.trim() {
                "comp" => {
                    cfg.components = val
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                "class" => {
                    let mut mask = 0u32;
                    for label in val.split(',') {
                        let label = label.trim();
                        if label.is_empty() {
                            continue;
                        }
                        let class = EventClass::from_label(label).ok_or_else(|| {
                            format!(
                                "unknown event class `{label}` (expected one of: {})",
                                ALL_CLASSES.map(EventClass::label).join(", ")
                            )
                        })?;
                        mask |= class.bit();
                    }
                    cfg.class_mask = mask;
                }
                "cycles" => {
                    let (lo, hi) = val
                        .split_once("..")
                        .ok_or_else(|| format!("cycle range `{val}` must look like 100..5000"))?;
                    cfg.first_cycle = lo
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad first cycle `{lo}`"))?;
                    let hi = hi.trim();
                    cfg.last_cycle = if hi.is_empty() {
                        Cycle::MAX
                    } else {
                        hi.parse().map_err(|_| format!("bad last cycle `{hi}`"))?
                    };
                }
                other => return Err(format!("unknown trace filter key `{other}`")),
            }
        }
        Ok(cfg)
    }

    /// True if a component with this name passes the component filter.
    pub fn allows_component(&self, name: &str) -> bool {
        self.components.is_empty() || self.components.iter().any(|p| name.contains(p))
    }
}

/// The event sink threaded through [`Ctx`](crate::Ctx).
///
/// A disabled tracer (`Tracer::off()`, the default) rejects every emit
/// with a single branch and never allocates. The engine keeps the tracer's
/// notion of the current cycle and the *focused* track (the component
/// being ticked) up to date, so emit calls carry only event-local data.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    class_mask: u32,
    first_cycle: Cycle,
    last_cycle: Cycle,
    now: Cycle,
    /// Track currently being ticked; events are attributed to it.
    focus: u32,
    /// Cached `track_enabled[focus] && on`: makes `wants` one load + mask.
    focus_live: bool,
    tracks: Vec<String>,
    track_enabled: Vec<bool>,
    events: Vec<Event>,
    filter: TraceConfig,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::off()
    }
}

impl Tracer {
    /// A disabled tracer: every emit is a no-op, nothing is buffered.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            class_mask: 0,
            first_cycle: 0,
            last_cycle: 0,
            now: 0,
            focus: 0,
            focus_live: false,
            tracks: Vec::new(),
            track_enabled: Vec::new(),
            events: Vec::new(),
            filter: TraceConfig::default(),
        }
    }

    /// An enabled tracer with the given filter. Tracks are registered
    /// afterwards via [`Tracer::register_track`].
    pub fn new(filter: TraceConfig) -> Tracer {
        Tracer {
            on: true,
            class_mask: filter.class_mask,
            first_cycle: filter.first_cycle,
            last_cycle: filter.last_cycle,
            now: 0,
            focus: 0,
            focus_live: false,
            tracks: Vec::new(),
            track_enabled: Vec::new(),
            events: Vec::new(),
            filter,
        }
    }

    /// Registers a named track (one per component) and returns its index.
    /// The component filter is resolved here, once.
    pub fn register_track(&mut self, name: &str) -> u32 {
        let id = u32::try_from(self.tracks.len()).expect("fewer than 2^32 trace tracks");
        self.track_enabled.push(self.filter.allows_component(name));
        self.tracks.push(name.to_string());
        id
    }

    /// Sets the current cycle (called by the engine each step).
    #[inline]
    pub fn set_now(&mut self, cycle: Cycle) {
        self.now = cycle;
    }

    /// Focuses a track: subsequent events are attributed to it. Called by
    /// the engine before each component tick; a no-op when disabled.
    #[inline]
    pub fn focus(&mut self, track: u32) {
        if !self.on {
            return;
        }
        self.focus = track;
        self.focus_live = self
            .track_enabled
            .get(track as usize)
            .copied()
            .unwrap_or(true);
    }

    /// True if an event of `class` would be recorded right now. Callers
    /// with non-trivial event construction should check this first; the
    /// emit methods perform the same check internally.
    #[inline]
    pub fn wants(&self, class: EventClass) -> bool {
        self.focus_live
            && (self.class_mask & class.bit()) != 0
            && self.now >= self.first_cycle
            && self.now <= self.last_cycle
    }

    #[inline]
    fn push(&mut self, class: EventClass, phase: Phase, name: &'static str, id: u64, value: u64) {
        self.events.push(Event {
            cycle: self.now,
            track: self.focus,
            class,
            phase,
            name,
            id,
            value,
        });
    }

    /// Emits a point-in-time event.
    #[inline]
    pub fn instant(&mut self, class: EventClass, name: &'static str, id: u64, value: u64) {
        if self.wants(class) {
            self.push(class, Phase::Instant, name, id, value);
        }
    }

    /// Opens an async span, paired with [`Tracer::end`] by `id`.
    #[inline]
    pub fn begin(&mut self, class: EventClass, name: &'static str, id: u64) {
        if self.wants(class) {
            self.push(class, Phase::Begin, name, id, 0);
        }
    }

    /// Closes the async span opened with the same `class`/`name`/`id`.
    #[inline]
    pub fn end(&mut self, class: EventClass, name: &'static str, id: u64) {
        if self.wants(class) {
            self.push(class, Phase::End, name, id, 0);
        }
    }

    /// Extracts the recorded trace, leaving the tracer empty (but still
    /// enabled and with its tracks registered).
    pub fn take(&mut self) -> Trace {
        Trace {
            tracks: self.tracks.clone(),
            events: std::mem::take(&mut self.events),
        }
    }

    /// A per-domain shard for parallel execution: same filter, same track
    /// table (so track ids stay global), empty event buffer. Shard events
    /// are merged back with [`Tracer::absorb_events`] in canonical order
    /// at epoch barriers.
    pub(crate) fn shard(&self) -> Tracer {
        Tracer {
            on: self.on,
            class_mask: self.class_mask,
            first_cycle: self.first_cycle,
            last_cycle: self.last_cycle,
            now: self.now,
            focus: 0,
            focus_live: false,
            tracks: self.tracks.clone(),
            track_enabled: self.track_enabled.clone(),
            events: Vec::new(),
            filter: self.filter.clone(),
        }
    }

    /// Drains the buffered events (shard side of the epoch merge).
    pub(crate) fn drain_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Appends already-ordered events (main-tracer side of the merge).
    pub(crate) fn absorb_events(&mut self, events: impl IntoIterator<Item = Event>) {
        self.events.extend(events);
    }
}

/// A completed trace: named tracks plus the flat event list, ready for
/// export.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Track names, indexed by [`Event::track`].
    pub tracks: Vec<String>,
    /// All recorded events, in emission (deterministic) order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Renders the trace as Chrome-trace/Perfetto JSON (the
    /// `{"traceEvents": [...]}` object format). Load it in
    /// <https://ui.perfetto.dev> or `chrome://tracing`; one timestamp unit
    /// equals one simulated cycle.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (tid, name) in self.tracks.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
        }
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{");
            out.push_str(&format!(
                "\"ph\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{},\"cat\":\"{}\",\"name\":{}",
                ev.phase.chrome(),
                ev.track,
                ev.cycle,
                ev.class.label(),
                json_string(ev.name)
            ));
            match ev.phase {
                Phase::Instant => {
                    out.push_str(&format!(
                        ",\"s\":\"t\",\"args\":{{\"id\":{},\"value\":{}}}",
                        ev.id, ev.value
                    ));
                }
                Phase::Begin | Phase::End => {
                    out.push_str(&format!(",\"id\":{}", ev.id));
                }
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Number of events with the given name (any phase).
    pub fn count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name == name).count()
    }

    /// Number of events with the given name and phase.
    pub fn count_phase(&self, name: &str, phase: Phase) -> usize {
        self.events
            .iter()
            .filter(|e| e.name == name && e.phase == phase)
            .count()
    }
}

/// Escapes `s` as a JSON string literal, including the surrounding quotes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub mod json {
    //! A minimal recursive-descent JSON parser, used by the trace validity
    //! tests and the `gated_counts` test. Hand-rolled because the workspace is
    //! hermetic (no serde).

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number, held as `f64`.
        Num(f64),
        /// A string (escapes resolved).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object; key order preserved.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object member lookup (first match).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as an array, if it is one.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The value as a string, if it is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as a number, if it is one.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Deepest nesting of arrays and objects [`parse`] accepts. The
    /// parser recurses once per level, so without a cap a long run of
    /// `[` would overflow the stack instead of failing.
    pub const MAX_DEPTH: usize = 128;

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error,
    /// including trailing garbage after the document and an array or
    /// object nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        if *pos < bytes.len() && bytes[*pos] == b {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", b as char))
        }
    }

    /// Parses the value at `pos`, inside `depth` open arrays and objects.
    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
            )),
            Some(b'{') => parse_object(bytes, pos, depth + 1),
            Some(b'[') => parse_array(bytes, pos, depth + 1),
            Some(b'"') => parse_string(bytes, pos).map(Value::Str),
            Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
        }
    }

    fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {pos}"))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    let esc = *bytes
                        .get(*pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = bytes
                                .get(*pos..*pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            *pos += 4;
                            // Surrogate pairs are not produced by our
                            // emitters; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte 0x{b:02x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                    let c = rest
                        .chars()
                        .next()
                        .expect("peeked Some(_) above, so at least one scalar remains");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos, depth)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {pos}")),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut members = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos, depth)?;
            members.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    fn live_tracer() -> Tracer {
        let mut t = Tracer::new(TraceConfig::default());
        let track = t.register_track("unit");
        t.focus(track);
        t
    }

    #[test]
    fn disabled_tracer_buffers_nothing_and_does_not_allocate() {
        let mut t = Tracer::off();
        t.focus(0);
        t.set_now(17);
        for i in 0..1000 {
            t.instant(EventClass::Flit, "flit.rx", i, 64);
            t.begin(EventClass::Ptw, "ptw.walk", i);
            t.end(EventClass::Ptw, "ptw.walk", i);
        }
        // No allocation: the event buffer never grew past its (empty)
        // initial state.
        assert_eq!(t.events.capacity(), 0);
        assert!(t.take().events.is_empty());
    }

    #[test]
    fn class_and_cycle_filters_apply() {
        let cfg = TraceConfig::parse("class=flit; cycles=10..20").unwrap();
        let mut t = Tracer::new(cfg);
        let track = t.register_track("switch0");
        t.focus(track);
        t.set_now(5);
        t.instant(EventClass::Flit, "flit.rx", 1, 0); // before range
        t.set_now(15);
        t.instant(EventClass::Flit, "flit.rx", 2, 0); // kept
        t.instant(EventClass::Ptw, "ptw.walk", 3, 0); // wrong class
        t.set_now(25);
        t.instant(EventClass::Flit, "flit.rx", 4, 0); // after range
        let events = t.take().events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, 2);
    }

    #[test]
    fn component_filter_applies_per_track() {
        let cfg = TraceConfig::parse("comp=switch").unwrap();
        let mut t = Tracer::new(cfg);
        let sw = t.register_track("gpu0.switch");
        let cu = t.register_track("gpu0.cu1");
        t.set_now(1);
        t.focus(sw);
        t.instant(EventClass::Flit, "flit.rx", 1, 0);
        t.focus(cu);
        t.instant(EventClass::Flit, "flit.rx", 2, 0);
        let trace = t.take();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].track, sw);
    }

    #[test]
    fn parse_filter_rejects_garbage() {
        assert!(TraceConfig::parse("class=bogus").is_err());
        assert!(TraceConfig::parse("cycles=abc..10").is_err());
        assert!(TraceConfig::parse("nonsense").is_err());
        assert!(TraceConfig::parse("what=ever").is_err());
        let open = TraceConfig::parse("cycles=100..").unwrap();
        assert_eq!(open.first_cycle, 100);
        assert_eq!(open.last_cycle, Cycle::MAX);
    }

    #[test]
    fn json_string_escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\r\u{08}\u{0c}\u{01}∞ é";
        let encoded = json_string(nasty);
        match parse(&encoded).unwrap() {
            Value::Str(s) => assert_eq!(s, nasty),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn chrome_trace_output_is_valid_json() {
        let mut t = Tracer::new(TraceConfig::default());
        let track = t.register_track("weird \"name\"\nwith\tescapes");
        t.focus(track);
        t.set_now(3);
        t.instant(EventClass::Stitch, "stitch.eject", 7, 2);
        t.begin(EventClass::Cache, "l2.miss", 42);
        t.set_now(9);
        t.end(EventClass::Cache, "l2.miss", 42);
        let doc = parse(&t.take().to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 metadata record + 3 events.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            events[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("weird \"name\"\nwith\tescapes")
        );
        let begin = &events[2];
        assert_eq!(begin.get("ph").unwrap().as_str(), Some("b"));
        assert_eq!(begin.get("id").unwrap().as_f64(), Some(42.0));
        assert_eq!(begin.get("cat").unwrap().as_str(), Some("cache"));
    }

    #[test]
    fn event_counts_by_name_and_phase() {
        let mut t = live_tracer();
        t.set_now(1);
        t.begin(EventClass::Ptw, "ptw.walk", 1);
        t.begin(EventClass::Ptw, "ptw.walk", 2);
        t.end(EventClass::Ptw, "ptw.walk", 1);
        let trace = t.take();
        assert_eq!(trace.count("ptw.walk"), 3);
        assert_eq!(trace.count_phase("ptw.walk", Phase::Begin), 2);
        assert_eq!(trace.count_phase("ptw.walk", Phase::End), 1);
    }

    #[test]
    fn parser_handles_numbers_and_nesting() {
        let v = parse(r#"{"a":[1,-2.5,3e2,true,false,null],"b":{"c":"d"}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(300.0));
        assert_eq!(a[3], Value::Bool(true));
        assert_eq!(a[5], Value::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"[1,2"#).is_err());
        assert!(parse("{} trailing").is_err());
    }
}
