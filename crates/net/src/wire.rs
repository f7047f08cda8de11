//! `Wire`: the hand-rolled, dependency-free serialization used on the
//! TCP transport.
//!
//! Every value encodes to a fixed, platform-independent little-endian
//! layout; `wire_size` reports the *exact* number of bytes `encode`
//! appends. That exactness is load-bearing twice over: the framing layer
//! pre-sizes buffers from it, and the engine feeds it to
//! `exchange_with_stats` so the byte histograms of the in-process and TCP
//! backends agree (the in-process backend never serializes at all, it
//! just *prices* messages with the same function).
//!
//! Encoding is fallible: lengths on the wire are `u32`, so a collection
//! longer than `u32::MAX` cannot be represented. That limit surfaces as a
//! typed [`WireError`] instead of a panic, letting servers reject an
//! oversized value without dying.
//!
//! No `serde`: the workspace is dependency-free by design, and the
//! message set is small enough that explicit impls are clearer than a
//! derive anyway. Types that are nothing but a sequence of fields get
//! their impl from [`wire_struct!`](crate::wire_struct); counter sets
//! are declared through [`metric_set!`](crate::metric_set), which adds
//! what the metric sinks need.

use std::io;

/// Failure to encode a value into the wire format.
///
/// The wire format itself imposes the only limit: collection lengths are
/// carried as `u32`, so anything longer is unrepresentable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A collection exceeded the `u32` length field of the wire format.
    TooLong {
        /// What was being encoded (e.g. `"vec"`).
        what: &'static str,
        /// The offending length.
        len: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooLong { what, len } => {
                write!(f, "wire: {what} of length {len} exceeds u32::MAX")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A value with an exact, self-describing binary encoding.
///
/// Contract: a successful `encode` appends exactly `wire_size()` bytes,
/// and `decode` consumes exactly the bytes `encode` produced, yielding an
/// equal value. The proptest suite in this module checks the round trip
/// for every built-in impl.
pub trait Wire: Sized {
    /// Exact number of bytes `encode` will append for this value.
    fn wire_size(&self) -> usize;
    /// Appends the encoding of `self` to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TooLong`] when a contained collection exceeds
    /// the `u32` length field of the wire format. On error, `out` may
    /// hold a partial encoding and should be discarded.
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError>;
    /// Decodes one value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::UnexpectedEof`] on truncated input and
    /// [`io::ErrorKind::InvalidData`] on malformed bytes (e.g. a bool
    /// that is neither 0 nor 1).
    fn decode(input: &mut &[u8]) -> io::Result<Self>;
}

/// Takes `n` bytes off the front of `input` or fails with a labelled EOF.
fn take<'a>(input: &mut &'a [u8], n: usize, what: &str) -> io::Result<&'a [u8]> {
    if input.len() < n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "wire: truncated {what} (need {n} bytes, have {})",
                input.len()
            ),
        ));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

macro_rules! wire_prim {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn wire_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
                out.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> io::Result<Self> {
                let bytes = take(input, std::mem::size_of::<$t>(), stringify!($t))?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

wire_prim!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for () {
    #[inline]
    fn wire_size(&self) -> usize {
        0
    }
    #[inline]
    fn encode(&self, _out: &mut Vec<u8>) -> Result<(), WireError> {
        Ok(())
    }
    #[inline]
    fn decode(_input: &mut &[u8]) -> io::Result<Self> {
        Ok(())
    }
}

impl Wire for bool {
    #[inline]
    fn wire_size(&self) -> usize {
        1
    }
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.push(u8::from(*self));
        Ok(())
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        match take(input, 1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire: invalid bool byte {b}"),
            )),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_size)
    }
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out)?;
            }
        }
        Ok(())
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        match take(input, 1, "option tag")?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            b => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire: invalid option tag {b}"),
            )),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_size(&self) -> usize {
        4 + self.iter().map(Wire::wire_size).sum::<usize>()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let n = u32::try_from(self.len()).map_err(|_| WireError::TooLong {
            what: "vec",
            len: self.len(),
        })?;
        n.encode(out)?;
        for v in self {
            v.encode(out)?;
        }
        Ok(())
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        let n = u32::decode(input)? as usize;
        // Bound the pre-allocation by what the input could possibly hold,
        // so a corrupt length cannot OOM before the EOF error surfaces.
        let mut out = Vec::with_capacity(n.min(input.len()));
        for _ in 0..n {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<const N: usize> Wire for [u64; N] {
    #[inline]
    fn wire_size(&self) -> usize {
        8 * N
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        for v in self {
            v.encode(out)?;
        }
        Ok(())
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        let mut out = [0u64; N];
        for v in &mut out {
            *v = u64::decode(input)?;
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[inline]
            fn wire_size(&self) -> usize {
                0 $(+ self.$idx.wire_size())+
            }
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
                $(self.$idx.encode(out)?;)+
                Ok(())
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> io::Result<Self> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);

/// Declares a struct whose [`Wire`] encoding is its fields in
/// declaration order, each by its own `Wire` impl — the named-field
/// sibling of the tuple impls above. `wire_size` is the sum of the
/// fields' sizes, so no width is ever written by hand. Not for types
/// that validate what they decode (enum tags, length-checked strings):
/// those keep explicit impls.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$attr:meta])*
        pub struct $S:ident {
            $( $(#[$fattr:meta])* pub $f:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        pub struct $S {
            $( $(#[$fattr])* pub $f: $ty, )*
        }

        impl $crate::Wire for $S {
            #[inline]
            fn wire_size(&self) -> usize {
                0 $(+ $crate::Wire::wire_size(&self.$f))*
            }
            fn encode(&self, out: &mut Vec<u8>) -> Result<(), $crate::WireError> {
                $( $crate::Wire::encode(&self.$f, out)?; )*
                Ok(())
            }
            fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
                Ok($S { $( $f: $crate::Wire::decode(input)?, )* })
            }
        }
    };
}

/// Whether a metric only ever grows or is an instantaneous reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone since the process started.
    Counter,
    /// A reading that can go down.
    Gauge,
}

impl MetricKind {
    /// The word Prometheus uses on a `# TYPE` line.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// How the readings two nodes hold of one metric combine into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeRule {
    /// Each node counts its own share.
    Sum,
    /// Every node observes the same quantity; the largest stands.
    Max,
}

/// One field of a [`metric_set!`](crate::metric_set) declaration with
/// its current value: what every sink (Prometheus text, JSONL, generic
/// tests) iterates instead of keeping a list of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// The field's name in the struct, and its key in JSONL records.
    pub name: &'static str,
    /// The name it is exported under (the field name unless the
    /// declaration gives one). Two sets that declare the same exported
    /// name hold the same metric.
    pub export: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Cross-node merge rule.
    pub merge: MergeRule,
    /// The field's doc comment, on one line.
    pub help: &'static str,
    /// The field's current value.
    pub value: u64,
}

/// Declares a set of `u64` metrics **once**: each line gives a field's
/// doc comment, kind (`counter` | `gauge`), cross-node merge rule
/// (`sum` | `max`), name, and — where it differs from the field name —
/// the name it is exported under. From that one list the macro emits
/// the struct (plain `pub u64` fields, `Default`), `merge`, the [`Wire`]
/// codec in declaration order, `metrics()` (one [`Metric`] per field,
/// for sinks to loop over) and `set()` by exported name. An optional
/// `also { pub field: Type, .. }` block appends non-metric fields that
/// ride the wire after the metrics and are left alone by `merge`.
///
/// ```
/// knightking_net::metric_set! {
///     /// What one node counted.
///     #[derive(Copy)]
///     pub struct Demo {
///         /// Moves taken.
///         counter sum steps => "kk_walker_steps_total",
///         /// Supersteps seen (every node sees them all).
///         counter max iterations,
///     }
/// }
/// let mut a = Demo { steps: 2, iterations: 5 };
/// a.merge(&Demo { steps: 3, iterations: 4 });
/// assert_eq!((a.steps, a.iterations), (5, 5));
/// assert_eq!(a.metrics()[0].export, "kk_walker_steps_total");
/// assert_eq!(a.metrics()[1].help, "Supersteps seen (every node sees them all).");
/// ```
#[macro_export]
macro_rules! metric_set {
    (@kind counter) => { $crate::MetricKind::Counter };
    (@kind gauge) => { $crate::MetricKind::Gauge };
    (@rule sum) => { $crate::MergeRule::Sum };
    (@rule max) => { $crate::MergeRule::Max };
    (@merge sum $a:expr, $b:expr) => { $a += $b };
    (@merge max $a:expr, $b:expr) => { $a = $a.max($b) };
    (@export $f:ident) => { stringify!($f) };
    (@export $f:ident $export:literal) => { $export };
    (
        $(#[$attr:meta])*
        pub struct $S:ident {
            $(
                $(#[doc = $doc:literal])+
                $kind:ident $rule:ident $f:ident $(=> $export:literal)?
            ),* $(,)?
        }
        $( also { $( $(#[$aattr:meta])* pub $a:ident : $aty:ty ),* $(,)? } )?
    ) => {
        $crate::wire_struct! {
            $(#[$attr])*
            #[derive(Debug, Clone, PartialEq, Eq, Default)]
            pub struct $S {
                $( $(#[doc = $doc])+ pub $f: u64, )*
                $( $( $(#[$aattr])* pub $a: $aty, )* )?
            }
        }

        impl $S {
            /// How many metrics the set declares.
            pub const LEN: usize = [$(stringify!($f)),*].len();

            /// Folds another node's readings into this one, each field
            /// by its declared rule.
            pub fn merge(&mut self, other: &$S) {
                $( $crate::metric_set!(@merge $rule self.$f, other.$f); )*
            }

            /// Every declared metric with its current value, in
            /// declaration (= wire) order.
            pub fn metrics(&self) -> [$crate::Metric; Self::LEN] {
                [$( $crate::Metric {
                    name: stringify!($f),
                    export: $crate::metric_set!(@export $f $($export)?),
                    kind: $crate::metric_set!(@kind $kind),
                    merge: $crate::metric_set!(@rule $rule),
                    help: concat!($($doc),+).trim(),
                    value: self.$f,
                }, )*]
            }

            /// Sets the metric exported as `export`; `false` when the
            /// set declares none by that name.
            pub fn set(&mut self, export: &str, value: u64) -> bool {
                $(
                    if export == $crate::metric_set!(@export $f $($export)?) {
                        self.$f = value;
                        return true;
                    }
                )*
                false
            }
        }
    };
}

/// Encodes a value into a fresh buffer (sized exactly).
///
/// # Errors
///
/// Returns [`WireError::TooLong`] when a contained collection exceeds the
/// `u32` length field of the wire format.
pub fn to_bytes<T: Wire>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(value.wire_size());
    value.encode(&mut out)?;
    debug_assert_eq!(out.len(), value.wire_size(), "wire_size lied");
    Ok(out)
}

/// Decodes a value from a buffer, requiring the buffer be fully consumed.
///
/// # Errors
///
/// Fails on truncated or malformed input, or on trailing garbage.
pub fn from_bytes<T: Wire>(mut input: &[u8]) -> io::Result<T> {
    let v = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire: {} trailing bytes after value", input.len()),
        ));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).unwrap();
        assert_eq!(bytes.len(), v.wire_size());
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0xABu8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-5i32);
        round_trip(1.5f32);
        round_trip(-0.25f64);
        round_trip(true);
        round_trip(false);
        round_trip(());
    }

    #[test]
    fn compounds_round_trip() {
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip((1u32, true));
        round_trip((1u8, 2u16, 3u32));
        round_trip([1u64, 2, 3, 4]);
        round_trip((Some(3u32), Option::<u32>::None));
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = to_bytes(&0xAABBCCDDu32).unwrap();
        let err = from_bytes::<u32>(&bytes[..2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.push(99);
        let err = from_bytes::<u8>(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn invalid_bool_rejected() {
        let err = from_bytes::<bool>(&[2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_vec_length_does_not_alloc_unbounded() {
        // Length claims u32::MAX elements; must error, not OOM.
        let bytes = to_bytes(&u32::MAX).unwrap();
        let err = from_bytes::<Vec<u64>>(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// An oversized collection surfaces as a typed error, not a panic.
    /// `Vec<()>` makes a >u32::MAX-element vector cheap to build: each
    /// element is zero bytes on the wire, so only the length field
    /// overflows.
    #[test]
    fn oversized_vec_is_a_typed_error() {
        let v = vec![(); u32::MAX as usize + 1];
        let err = to_bytes(&v).unwrap_err();
        assert_eq!(
            err,
            WireError::TooLong {
                what: "vec",
                len: u32::MAX as usize + 1,
            }
        );
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }
}
