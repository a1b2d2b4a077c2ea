//! The heterogeneous (VM-level) checkpoint codec.
//!
//! The design follows the paper's §4 and its companion TR \[2\]: "in order
//! not to hurt the performance of heterogeneous checkpointing, data is saved
//! in the machine's native representation, with a concise indication of what
//! that representation is. During restart, the checkpointed data is
//! converted to the machine in which the application is restarted."
//!
//! Concretely:
//!
//! * the **header** is architecture-independent (fixed big-endian) and names
//!   the saving machine's representation ([`Arch`]);
//! * the **body** is written with the saving machine's byte order and word
//!   length — saving is a plain memory walk, no conversion;
//! * **restore** reads the header and converts: byte-swaps if endianness
//!   differs, widens/narrows machine words if the word length differs.
//!   Narrowing fails with [`Error::Checkpoint`] if a value does not fit the
//!   destination word — the failure mode real heterogeneous C/R must detect.

use starfish_util::{Error, Result};

use crate::arch::{Arch, Endianness};
use crate::value::CkptValue;

const MAGIC: u32 = 0x5346_564D; // "SFVM"
const VERSION: u8 = 1;

const T_UNIT: u8 = 0;
const T_BOOL: u8 = 1;
const T_INT: u8 = 2;
const T_FLOAT: u8 = 3;
const T_STR: u8 = 4;
const T_BYTES: u8 = 5;
const T_INT_ARR: u8 = 6;
const T_FLOAT_ARR: u8 = 7;
const T_LIST: u8 = 8;
const T_RECORD: u8 = 9;
const T_ZEROS: u8 = 10;

/// What restore had to do to the image (reported to EXPERIMENTS.md tables
/// and charged as conversion time by the runtime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionReport {
    /// Endianness differed: every multi-byte scalar was byte-swapped.
    pub byte_swapped: bool,
    /// Words were widened 32→64.
    pub word_widened: bool,
    /// Words were narrowed 64→32 (each value range-checked).
    pub word_narrowed: bool,
    /// Number of scalar values that required conversion work.
    pub values_converted: u64,
    /// Total body bytes processed.
    pub body_bytes: u64,
}

impl ConversionReport {
    pub fn identical(&self) -> bool {
        !self.byte_swapped && !self.word_widened && !self.word_narrowed
    }
}

// ---- native-representation writer -----------------------------------------

/// Length of the architecture-independent header: magic, version,
/// endianness byte, word bits.
const HEADER_LEN: usize = 7;

struct NativeWriter {
    arch: Arch,
    buf: Vec<u8>,
}

fn word_overflow(v: i64) -> Error {
    Error::checkpoint(format!(
        "value {v} does not fit the saving machine's 32-bit word"
    ))
}

impl NativeWriter {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32_native(&mut self, v: u32) {
        match self.arch.endian {
            Endianness::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
            Endianness::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
        }
    }

    fn put_u64_native(&mut self, v: u64) {
        match self.arch.endian {
            Endianness::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
            Endianness::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
        }
    }

    /// A machine word: 4 or 8 bytes depending on the saving arch. Errors if
    /// the value cannot be represented on the saving machine at all.
    fn put_word_signed(&mut self, v: i64) -> Result<()> {
        if self.arch.word_bits == 32 {
            let narrowed = i32::try_from(v).map_err(|_| word_overflow(v))?;
            self.put_u32_native(narrowed as u32);
        } else {
            self.put_u64_native(v as u64);
        }
        Ok(())
    }

    /// An unsigned word used for lengths.
    fn put_word_len(&mut self, v: u64) -> Result<()> {
        if self.arch.word_bits == 32 {
            let narrowed = u32::try_from(v)
                .map_err(|_| Error::checkpoint(format!("length {v} exceeds 32-bit word")))?;
            self.put_u32_native(narrowed);
        } else {
            self.put_u64_native(v);
        }
        Ok(())
    }

    fn put_f64_native(&mut self, v: f64) {
        self.put_u64_native(v.to_bits());
    }

    /// Bulk array payload: each element becomes an `N`-byte word. The
    /// byte-order branch is taken once per array, not once per element.
    fn put_words<T: Copy, const N: usize>(
        &mut self,
        xs: &[T],
        le: impl Fn(T) -> [u8; N],
        be: impl Fn(T) -> [u8; N],
    ) {
        let start = self.buf.len();
        self.buf.resize(start + N * xs.len(), 0);
        let (words, _) = self.buf.split_at_mut(start).1.as_chunks_mut::<N>();
        let pairs = words.iter_mut().zip(xs);
        match self.arch.endian {
            Endianness::Little => pairs.for_each(|(w, x)| *w = le(*x)),
            Endianness::Big => pairs.for_each(|(w, x)| *w = be(*x)),
        }
    }

    fn put_value(&mut self, v: &CkptValue) -> Result<()> {
        match v {
            CkptValue::Unit => self.put_u8(T_UNIT),
            CkptValue::Bool(b) => {
                self.put_u8(T_BOOL);
                self.put_u8(*b as u8);
            }
            CkptValue::Int(i) => {
                self.put_u8(T_INT);
                self.put_word_signed(*i)?;
            }
            CkptValue::Float(f) => {
                self.put_u8(T_FLOAT);
                self.put_f64_native(*f);
            }
            CkptValue::Str(s) => {
                self.put_u8(T_STR);
                self.put_word_len(s.len() as u64)?;
                self.buf.extend_from_slice(s.as_bytes());
            }
            CkptValue::Bytes(b) => {
                self.put_u8(T_BYTES);
                self.put_word_len(b.len() as u64)?;
                self.buf.extend_from_slice(b);
            }
            CkptValue::IntArray(xs) => {
                self.put_u8(T_INT_ARR);
                self.put_word_len(xs.len() as u64)?;
                if self.arch.word_bits == 32 {
                    if let Some(v) = xs.iter().find(|v| i32::try_from(**v).is_err()) {
                        return Err(word_overflow(*v));
                    }
                    self.put_words(
                        xs,
                        |x| (x as i32).to_le_bytes(),
                        |x| (x as i32).to_be_bytes(),
                    );
                } else {
                    self.put_words(xs, i64::to_le_bytes, i64::to_be_bytes);
                }
            }
            CkptValue::FloatArray(xs) => {
                self.put_u8(T_FLOAT_ARR);
                self.put_word_len(xs.len() as u64)?;
                self.put_words(
                    xs,
                    |x: f64| x.to_bits().to_le_bytes(),
                    |x: f64| x.to_bits().to_be_bytes(),
                );
            }
            CkptValue::List(vs) => {
                self.put_u8(T_LIST);
                self.put_word_len(vs.len() as u64)?;
                for v in vs {
                    self.put_value(v)?;
                }
            }
            CkptValue::Record(fs) => {
                self.put_u8(T_RECORD);
                self.put_word_len(fs.len() as u64)?;
                for (k, v) in fs {
                    self.put_word_len(k.len() as u64)?;
                    self.buf.extend_from_slice(k.as_bytes());
                    self.put_value(v)?;
                }
            }
            CkptValue::Zeros(n) => {
                self.put_u8(T_ZEROS);
                // Always 8 bytes: region sizes can exceed a 32-bit word even
                // on 32-bit machines (file-backed regions).
                self.put_u64_native(*n);
            }
        }
        Ok(())
    }
}

/// Exact encoded body length of `v` on a machine with `word`-byte words,
/// so the encoder allocates its buffer once.
fn encoded_len(v: &CkptValue, word: usize) -> usize {
    1 + match v {
        CkptValue::Unit => 0,
        CkptValue::Bool(_) => 1,
        CkptValue::Int(_) => word,
        CkptValue::Float(_) | CkptValue::Zeros(_) => 8,
        CkptValue::Str(s) => word + s.len(),
        CkptValue::Bytes(b) => word + b.len(),
        CkptValue::IntArray(xs) => word + word * xs.len(),
        CkptValue::FloatArray(xs) => word + 8 * xs.len(),
        CkptValue::List(vs) => word + vs.iter().map(|v| encoded_len(v, word)).sum::<usize>(),
        CkptValue::Record(fs) => {
            word + fs
                .iter()
                .map(|(k, v)| word + k.len() + encoded_len(v, word))
                .sum::<usize>()
        }
    }
}

// ---- converting reader -----------------------------------------------------

struct ConvertingReader<'a> {
    src: Arch,
    dst: Arch,
    buf: &'a [u8],
    pos: usize,
    report: ConversionReport,
}

impl<'a> ConvertingReader<'a> {
    /// A reader positioned at the body of `img`, converting to `dst`.
    fn new(img: &'a [u8], dst: Arch) -> Result<Self> {
        let src = peek_arch(img)?;
        Ok(ConvertingReader {
            src,
            dst,
            buf: img,
            pos: HEADER_LEN,
            report: ConversionReport {
                byte_swapped: src.endian != dst.endian,
                word_widened: src.word_bits < dst.word_bits,
                word_narrowed: src.word_bits > dst.word_bits,
                values_converted: 0,
                body_bytes: (img.len() - HEADER_LEN) as u64,
            },
        })
    }

    /// Fail unless the whole image was consumed.
    fn finish(&self) -> Result<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(Error::checkpoint(format!("{n} trailing bytes in image"))),
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or_else(|| {
                Error::checkpoint(format!("truncated image: need {n} bytes at {}", self.pos))
            })?;
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (words, _) = self.take(N)?.as_chunks::<N>();
        words
            .first()
            .copied()
            .ok_or_else(|| Error::checkpoint("truncated image"))
    }

    fn get_u8(&mut self) -> Result<u8> {
        self.take_array::<1>().map(|[b]| b)
    }

    fn get_u32_src(&mut self) -> Result<u32> {
        let b = self.take_array()?;
        Ok(match self.src.endian {
            Endianness::Little => u32::from_le_bytes(b),
            Endianness::Big => u32::from_be_bytes(b),
        })
    }

    fn get_u64_src(&mut self) -> Result<u64> {
        let b = self.take_array()?;
        Ok(match self.src.endian {
            Endianness::Little => u64::from_le_bytes(b),
            Endianness::Big => u64::from_be_bytes(b),
        })
    }

    fn note_scalar(&mut self) {
        if !self.report.identical() {
            self.report.values_converted += 1;
        }
    }

    fn narrow_check(&self, v: i64) -> Result<()> {
        if self.dst.word_bits == 32 && i32::try_from(v).is_err() {
            return Err(Error::checkpoint(format!(
                "value {v} from a {}-bit image does not fit the destination's 32-bit word",
                self.src.word_bits
            )));
        }
        Ok(())
    }

    /// Read a machine word of the *source* arch as a signed value and check
    /// it fits the *destination* word.
    fn get_word_signed(&mut self) -> Result<i64> {
        let v = if self.src.word_bits == 32 {
            self.get_u32_src()? as i32 as i64
        } else {
            self.get_u64_src()? as i64
        };
        self.narrow_check(v)?;
        self.note_scalar();
        Ok(v)
    }

    fn get_word_len(&mut self) -> Result<u64> {
        let v = if self.src.word_bits == 32 {
            self.get_u32_src()? as u64
        } else {
            self.get_u64_src()?
        };
        self.note_scalar();
        Ok(v)
    }

    /// An element count, rejected before any allocation when even
    /// `min_elem` bytes per element would overrun the image.
    fn get_count(&mut self, min_elem: usize, what: &str) -> Result<usize> {
        let n = self.get_word_len()?;
        match usize::try_from(n) {
            Ok(n) if n.saturating_mul(min_elem) <= self.remaining() => Ok(n),
            _ => Err(Error::checkpoint(format!("{what} length exceeds image"))),
        }
    }

    fn get_f64(&mut self) -> Result<f64> {
        let bits = self.get_u64_src()?;
        self.note_scalar();
        Ok(f64::from_bits(bits))
    }

    fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::checkpoint(format!("bad bool byte {b}"))),
        }
    }

    fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_word_len()?;
        let n = usize::try_from(n).map_err(|_| Error::checkpoint("length exceeds image"))?;
        self.take(n)
    }

    fn get_str(&mut self, what: &str) -> Result<&'a str> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|_| Error::checkpoint(format!("invalid utf-8 {what}")))
    }

    /// Bulk array payload: `n` source words of `N` bytes each. The
    /// byte-order branch is taken once per array, not once per element.
    fn get_words<T, const N: usize>(
        &mut self,
        n: usize,
        le: impl Fn([u8; N]) -> T,
        be: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>> {
        let (words, _) = self.take(n.saturating_mul(N))?.as_chunks::<N>();
        let xs = match self.src.endian {
            Endianness::Little => words.iter().map(|w| le(*w)).collect(),
            Endianness::Big => words.iter().map(|w| be(*w)).collect(),
        };
        if !self.report.identical() {
            self.report.values_converted += n as u64;
        }
        Ok(xs)
    }

    /// `n` source machine words, each checked to fit the destination word.
    fn get_ints(&mut self, n: usize) -> Result<Vec<i64>> {
        let xs = if self.src.word_bits == 32 {
            self.get_words(
                n,
                |w| i32::from_le_bytes(w) as i64,
                |w| i32::from_be_bytes(w) as i64,
            )?
        } else {
            self.get_words(n, i64::from_le_bytes, i64::from_be_bytes)?
        };
        if self.src.word_bits > self.dst.word_bits {
            xs.iter().try_for_each(|v| self.narrow_check(*v))?;
        }
        Ok(xs)
    }

    fn get_value(&mut self) -> Result<CkptValue> {
        Ok(match self.get_u8()? {
            T_UNIT => CkptValue::Unit,
            T_BOOL => CkptValue::Bool(self.get_bool()?),
            T_INT => CkptValue::Int(self.get_word_signed()?),
            T_FLOAT => CkptValue::Float(self.get_f64()?),
            T_STR => CkptValue::Str(self.get_str("in image")?.to_owned()),
            T_BYTES => CkptValue::Bytes(self.get_bytes()?.to_vec()),
            T_INT_ARR => {
                let n = self.get_count(1, "array")?;
                CkptValue::IntArray(self.get_ints(n)?)
            }
            T_FLOAT_ARR => {
                let n = self.get_count(8, "array")?;
                CkptValue::FloatArray(self.get_words(
                    n,
                    |w| f64::from_bits(u64::from_le_bytes(w)),
                    |w| f64::from_bits(u64::from_be_bytes(w)),
                )?)
            }
            T_LIST => {
                let n = self.get_count(1, "list")?;
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(self.get_value()?);
                }
                CkptValue::List(vs)
            }
            T_RECORD => {
                let n = self.get_count(1, "record")?;
                let mut fs = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = self.get_str("field name")?.to_owned();
                    fs.push((k, self.get_value()?));
                }
                CkptValue::Record(fs)
            }
            T_ZEROS => CkptValue::Zeros(self.get_u64_src()?),
            t => return Err(Error::checkpoint(format!("unknown value tag {t}"))),
        })
    }

    /// [`CkptValue::heap_bytes`] of the next value, checked exactly as
    /// [`get_value`](Self::get_value) checks it but without building it:
    /// array payloads are skipped, except integer arrays that narrow, whose
    /// elements must be range-checked. Sums wrap like the `usize` sums of
    /// `heap_bytes` in release builds.
    fn value_bytes(&mut self) -> Result<u64> {
        Ok(match self.get_u8()? {
            T_UNIT => 0,
            T_BOOL => self.get_bool().map(|_| 1)?,
            T_INT => self.get_word_signed().map(|_| 8)?,
            T_FLOAT => self.get_f64().map(|_| 8)?,
            T_STR => self.get_str("in image")?.len() as u64 + 8,
            T_BYTES => self.get_bytes()?.len() as u64 + 8,
            T_INT_ARR => {
                let n = self.get_count(1, "array")?;
                if self.src.word_bits > self.dst.word_bits {
                    self.get_ints(n)?;
                } else {
                    self.take(n.saturating_mul(usize::from(self.src.word_bits / 8)))?;
                }
                n as u64 * 8 + 8
            }
            T_FLOAT_ARR => {
                let n = self.get_count(8, "array")?;
                self.take(n * 8)?;
                n as u64 * 8 + 8
            }
            T_LIST => {
                let n = self.get_count(1, "list")?;
                let mut sum = 8u64;
                for _ in 0..n {
                    sum = sum.wrapping_add(self.value_bytes()?);
                }
                sum
            }
            T_RECORD => {
                let n = self.get_count(1, "record")?;
                let mut sum = 0u64;
                for _ in 0..n {
                    let k = self.get_str("field name")?.len() as u64;
                    sum = sum.wrapping_add(k + 8).wrapping_add(self.value_bytes()?);
                }
                sum
            }
            T_ZEROS => self.get_u64_src()?,
            t => return Err(Error::checkpoint(format!("unknown value tag {t}"))),
        })
    }
}

// ---- public API -------------------------------------------------------------

/// Serialize `value` in the native representation of `arch`, prefixed by the
/// architecture-independent header.
pub fn encode_portable(value: &CkptValue, arch: Arch) -> Result<Vec<u8>> {
    let word = usize::from(arch.word_bits / 8);
    let mut w = NativeWriter {
        arch,
        buf: Vec::with_capacity(HEADER_LEN + encoded_len(value, word)),
    };
    // Header (always big-endian / fixed layout so any machine can read it).
    w.buf.extend_from_slice(&MAGIC.to_be_bytes());
    w.buf.push(VERSION);
    w.buf.push(match arch.endian {
        Endianness::Little => 0,
        Endianness::Big => 1,
    });
    w.buf.push(arch.word_bits);
    w.put_value(value)?;
    Ok(w.buf)
}

/// Read the representation header of an image without decoding the body.
pub fn peek_arch(img: &[u8]) -> Result<Arch> {
    let Some(([m0, m1, m2, m3, version, endian, word_bits], _)) =
        img.split_first_chunk::<HEADER_LEN>()
    else {
        return Err(Error::checkpoint("image too short for header"));
    };
    if u32::from_be_bytes([*m0, *m1, *m2, *m3]) != MAGIC {
        return Err(Error::checkpoint("bad image magic"));
    }
    if *version != VERSION {
        return Err(Error::checkpoint(format!("unsupported version {version}")));
    }
    let endian = match endian {
        0 => Endianness::Little,
        1 => Endianness::Big,
        b => return Err(Error::checkpoint(format!("bad endianness byte {b}"))),
    };
    if *word_bits != 32 && *word_bits != 64 {
        return Err(Error::checkpoint(format!("bad word bits {word_bits}")));
    }
    Ok(Arch::new("image", "image", endian, *word_bits))
}

/// Decode an image on a machine of architecture `dst`, converting the
/// representation as needed.
pub fn decode_portable(img: &[u8], dst: Arch) -> Result<(CkptValue, ConversionReport)> {
    let mut r = ConvertingReader::new(img, dst)?;
    let v = r.get_value()?;
    r.finish()?;
    Ok((v, r.report))
}

/// The accounted state size of an image on `dst`: the
/// [`CkptValue::heap_bytes`] of what [`decode_portable`] would return,
/// computed by walking the encoded structure without building the value.
/// Fails exactly when `decode_portable` fails.
pub fn accounted_bytes(img: &[u8], dst: Arch) -> Result<u64> {
    let mut r = ConvertingReader::new(img, dst)?;
    let n = r.value_bytes()?;
    r.finish()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MACHINES;

    fn sample() -> CkptValue {
        CkptValue::record(vec![
            ("step", CkptValue::Int(12345)),
            ("pi", CkptValue::Float(std::f64::consts::PI)),
            ("name", CkptValue::Str("jacobi".into())),
            ("flags", CkptValue::Bool(true)),
            ("grid", CkptValue::FloatArray(vec![0.5, -1.25, 1e300])),
            ("idx", CkptValue::IntArray(vec![-1, 0, 2_000_000_000])),
            (
                "nested",
                CkptValue::List(vec![CkptValue::Unit, CkptValue::Bytes(vec![1, 2, 3])]),
            ),
            ("heap", CkptValue::Zeros(1 << 20)),
        ])
    }

    #[test]
    fn same_arch_roundtrip_no_conversion() {
        for arch in MACHINES {
            let img = encode_portable(&sample(), arch).unwrap();
            let (v, rep) = decode_portable(&img, arch).unwrap();
            assert_eq!(v, sample());
            assert!(rep.identical(), "no conversion on {arch}");
            assert_eq!(rep.values_converted, 0);
        }
    }

    /// The Table 2 experiment: every ordered pair of machines can exchange
    /// checkpoints (as long as values fit the destination word).
    #[test]
    fn all_36_arch_pairs_roundtrip() {
        for src in MACHINES {
            let img = encode_portable(&sample(), src).unwrap();
            for dst in MACHINES {
                let (v, rep) = decode_portable(&img, dst).unwrap();
                assert_eq!(v, sample(), "{src} -> {dst}");
                assert_eq!(rep.byte_swapped, src.endian != dst.endian);
            }
        }
    }

    #[test]
    fn endianness_actually_differs_on_the_wire() {
        let le = encode_portable(&CkptValue::Int(0x01020304), MACHINES[0]).unwrap();
        let be = encode_portable(&CkptValue::Int(0x01020304), MACHINES[1]).unwrap();
        assert_ne!(le, be, "LE and BE bodies must differ");
        // Headers differ only in the endianness byte.
        assert_eq!(le[0..5], be[0..5]);
    }

    #[test]
    fn word_narrowing_fails_when_value_too_big() {
        let alpha = MACHINES[5]; // 64-bit
        let i686 = MACHINES[0]; // 32-bit
        let img = encode_portable(&CkptValue::Int(1 << 40), alpha).unwrap();
        let err = decode_portable(&img, i686).unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)));
        // But a fitting value narrows fine.
        let img = encode_portable(&CkptValue::Int(-5), alpha).unwrap();
        let (v, rep) = decode_portable(&img, i686).unwrap();
        assert_eq!(v, CkptValue::Int(-5));
        assert!(rep.word_narrowed);
        assert!(rep.values_converted > 0);
    }

    #[test]
    fn saving_oversized_int_on_32bit_machine_fails() {
        let err = encode_portable(&CkptValue::Int(1 << 40), MACHINES[0]).unwrap_err();
        assert!(matches!(err, Error::Checkpoint(_)));
    }

    #[test]
    fn corrupt_images_rejected() {
        assert!(decode_portable(b"shrt", MACHINES[0]).is_err());
        let mut img = encode_portable(&sample(), MACHINES[0]).unwrap();
        img[0] ^= 0xFF; // break magic
        assert!(decode_portable(&img, MACHINES[0]).is_err());
        let mut img = encode_portable(&sample(), MACHINES[0]).unwrap();
        img.truncate(img.len() - 3);
        assert!(decode_portable(&img, MACHINES[0]).is_err());
        let mut img = encode_portable(&sample(), MACHINES[0]).unwrap();
        img.push(0);
        assert!(decode_portable(&img, MACHINES[0]).is_err());
    }

    #[test]
    fn peek_arch_reads_header_only() {
        let img = encode_portable(&CkptValue::Unit, MACHINES[1]).unwrap();
        let a = peek_arch(&img).unwrap();
        assert_eq!(a.endian, Endianness::Big);
        assert_eq!(a.word_bits, 32);
    }

    #[test]
    fn negative_ints_survive_all_conversions() {
        for src in MACHINES {
            let img =
                encode_portable(&CkptValue::IntArray(vec![-1, i32::MIN as i64]), src).unwrap();
            for dst in MACHINES {
                let (v, _) = decode_portable(&img, dst).unwrap();
                assert_eq!(v, CkptValue::IntArray(vec![-1, i32::MIN as i64]));
            }
        }
    }

    #[test]
    fn floats_bit_exact_across_endianness() {
        let vals = vec![0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1e-300];
        let img = encode_portable(&CkptValue::FloatArray(vals.clone()), MACHINES[1]).unwrap();
        let (v, rep) = decode_portable(&img, MACHINES[0]).unwrap();
        assert!(rep.byte_swapped);
        match v {
            CkptValue::FloatArray(xs) => {
                for (a, b) in xs.iter().zip(&vals) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            _ => panic!("wrong shape"),
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::arch::MACHINES;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = CkptValue> {
        let leaf = prop_oneof![
            Just(CkptValue::Unit),
            any::<bool>().prop_map(CkptValue::Bool),
            // Stay within i32 so every arch can save/restore.
            (i32::MIN..=i32::MAX).prop_map(|v| CkptValue::Int(v as i64)),
            any::<f64>().prop_map(CkptValue::Float),
            ".{0,12}".prop_map(CkptValue::Str),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(CkptValue::Bytes),
            proptest::collection::vec(i32::MIN..=i32::MAX, 0..8)
                .prop_map(|v| CkptValue::IntArray(v.into_iter().map(|x| x as i64).collect())),
            (0u64..1 << 30).prop_map(CkptValue::Zeros),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(CkptValue::List),
                proptest::collection::vec(("[a-z]{1,6}", inner), 0..4)
                    .prop_map(|fs| { CkptValue::Record(fs) }),
            ]
        })
    }

    fn values_equal_mod_nan(a: &CkptValue, b: &CkptValue) -> bool {
        match (a, b) {
            (CkptValue::Float(x), CkptValue::Float(y)) => x.to_bits() == y.to_bits(),
            (CkptValue::FloatArray(xs), CkptValue::FloatArray(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (CkptValue::List(xs), CkptValue::List(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| values_equal_mod_nan(x, y))
            }
            (CkptValue::Record(xs), CkptValue::Record(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((ka, va), (kb, vb))| ka == kb && values_equal_mod_nan(va, vb))
            }
            _ => a == b,
        }
    }

    proptest! {
        /// Portable round-trip through any pair of Table 2 machines
        /// preserves values exactly (bit-exact for floats).
        #[test]
        fn portable_roundtrip_any_pair(
            v in arb_value(),
            src_i in 0usize..6,
            dst_i in 0usize..6,
        ) {
            let src = MACHINES[src_i];
            let dst = MACHINES[dst_i];
            let img = encode_portable(&v, src).unwrap();
            let (got, _) = decode_portable(&img, dst).unwrap();
            prop_assert!(values_equal_mod_nan(&got, &v));
        }

        /// Decoding never panics on arbitrary garbage.
        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_portable(&data, MACHINES[0]);
        }

        /// The non-decoding size equals the decoded value's `heap_bytes`
        /// on every (saving, restoring) machine pair, and the encoder's
        /// up-front sizing is exact.
        #[test]
        fn accounted_bytes_match_decoded_heap_bytes(
            v in arb_value(),
            src_i in 0usize..6,
            dst_i in 0usize..6,
        ) {
            let (src, dst) = (MACHINES[src_i], MACHINES[dst_i]);
            let img = encode_portable(&v, src).unwrap();
            let word = usize::from(src.word_bits / 8);
            prop_assert_eq!(img.len(), HEADER_LEN + encoded_len(&v, word));
            let (got, _) = decode_portable(&img, dst).unwrap();
            prop_assert_eq!(accounted_bytes(&img, dst).unwrap(), got.heap_bytes() as u64);
        }

        /// Integer arrays saved on a 64-bit machine: a 32-bit restore fails
        /// on an out-of-range element, and sizing fails exactly then too.
        #[test]
        fn accounted_bytes_fail_exactly_when_narrowing_fails(
            xs in proptest::collection::vec(
                prop_oneof![any::<i64>(), (i32::MIN..=i32::MAX).prop_map(i64::from)],
                0..16,
            ),
            big_endian in any::<bool>(),
            dst_i in 0usize..6,
        ) {
            // MACHINES' only 64-bit host is little-endian; add its mirror.
            let src = if big_endian {
                Arch::new("be64", "test", Endianness::Big, 64)
            } else {
                MACHINES[5]
            };
            let dst = MACHINES[dst_i];
            let img = encode_portable(&CkptValue::IntArray(xs), src).unwrap();
            let decoded = decode_portable(&img, dst).map(|(v, _)| v.heap_bytes() as u64);
            let sized = accounted_bytes(&img, dst);
            prop_assert_eq!(decoded.is_ok(), sized.is_ok());
            if let (Ok(a), Ok(b)) = (decoded, sized) {
                prop_assert_eq!(a, b);
            }
        }

        /// Bulk-coded arrays round-trip bit for bit between every machine
        /// pair — NaN payloads, -0.0 and subnormals included — and every
        /// element still counts as one converted value.
        #[test]
        fn bulk_arrays_roundtrip_bit_exact(
            fs in proptest::collection::vec(
                prop_oneof![
                    any::<u64>().prop_map(f64::from_bits),
                    (1u64..1 << 52).prop_map(f64::from_bits),
                    Just(-0.0),
                    Just(f64::NAN),
                    Just(f64::from_bits(0xFFF0_0000_DEAD_BEEF)),
                ],
                0..40,
            ),
            is in proptest::collection::vec(i32::MIN..=i32::MAX, 0..40),
            src_i in 0usize..6,
            dst_i in 0usize..6,
        ) {
            let (src, dst) = (MACHINES[src_i], MACHINES[dst_i]);
            let is: Vec<i64> = is.into_iter().map(i64::from).collect();
            for v in [CkptValue::FloatArray(fs.clone()), CkptValue::IntArray(is.clone())] {
                let img = encode_portable(&v, src).unwrap();
                let (got, rep) = decode_portable(&img, dst).unwrap();
                prop_assert!(values_equal_mod_nan(&got, &v));
                let n = match &v {
                    CkptValue::FloatArray(xs) => xs.len(),
                    CkptValue::IntArray(xs) => xs.len(),
                    _ => unreachable!(),
                };
                let expect = if rep.identical() { 0 } else { 1 + n as u64 };
                prop_assert_eq!(rep.values_converted, expect);
            }
        }

        /// Every strict prefix of a valid image is rejected, by decode and
        /// by sizing alike.
        #[test]
        fn truncated_images_are_rejected(v in arb_value(), src_i in 0usize..6) {
            let src = MACHINES[src_i];
            let img = encode_portable(&v, src).unwrap();
            for cut in 0..img.len() {
                prop_assert!(decode_portable(&img[..cut], src).is_err());
                prop_assert!(accounted_bytes(&img[..cut], src).is_err());
            }
        }

        /// Hostile bodies behind a valid header (tags, huge and small
        /// length words, stray bytes) return `Err` or a value, never panic,
        /// and sizing agrees with decoding on every one.
        #[test]
        fn hostile_bodies_never_panic(
            src_i in 0usize..6,
            dst_i in 0usize..6,
            tokens in proptest::collection::vec(
                prop_oneof![
                    (0u8..12).prop_map(Token::Tag),
                    prop_oneof![Just(u64::MAX), Just(u64::from(u32::MAX)), 0u64..4]
                        .prop_map(Token::Word),
                    any::<u8>().prop_map(Token::Byte),
                ],
                0..48,
            ),
        ) {
            let (src, dst) = (MACHINES[src_i], MACHINES[dst_i]);
            let mut img = encode_portable(&CkptValue::Unit, src).unwrap();
            img.pop();
            for t in tokens {
                match t {
                    Token::Tag(b) | Token::Byte(b) => img.push(b),
                    Token::Word(w) => {
                        let mut out = NativeWriter { arch: src, buf: Vec::new() };
                        out.put_u64_native(w);
                        if src.word_bits == 32 {
                            out.buf.clear();
                            out.put_u32_native(w as u32);
                        }
                        img.extend_from_slice(&out.buf);
                    }
                }
            }
            let decoded = decode_portable(&img, dst).map(|(v, _)| v.heap_bytes() as u64);
            let sized = accounted_bytes(&img, dst);
            prop_assert_eq!(decoded.is_ok(), sized.is_ok());
            if let (Ok(a), Ok(b)) = (decoded, sized) {
                prop_assert_eq!(a, b);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Token {
        Tag(u8),
        Word(u64),
        Byte(u8),
    }
}
