//! The codec every wire shape is built on: an encode trait, a decode trait
//! and one member reader.
//!
//! [`ToJson`] turns a value into a [`Value`] and [`FromJson`] reads one
//! back.  This module implements both for the primitives the wire carries;
//! `wire` implements them for its shapes, each shape once, so both
//! directions come from the same declaration.  Plain structs and
//! string-tagged unit enums are declared through [`json_struct!`] and
//! [`json_tags!`]; decoders of tagged shapes dispatch through [`tagged!`].
//!
//! Decoders read object members only through [`Obj`].  It is the one place
//! where a missing or mistyped member becomes a [`WireError`], and the error
//! names the member's path: `'width' is missing`, read from the member
//! `input`, surfaces as `'input.width' is missing`.

use crate::json::{Number, Value};

/// Why a document could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Prefixes the member (or array index) the error was read from.  A
    /// message that already starts with a quoted path gets the member
    /// prepended to that path; any other message gets the member quoted in
    /// front of it.
    pub(crate) fn at(self, member: impl std::fmt::Display) -> WireError {
        WireError(match self.0.strip_prefix('\'') {
            Some(path) => format!("'{member}.{path}"),
            None => format!("'{member}' {}", self.0),
        })
    }
}

/// A [`WireError`] with a free-form message.
pub(crate) fn err(message: impl Into<String>) -> WireError {
    WireError(message.into())
}

/// A value of the wrong shape: "must be {what}".
pub(crate) fn expected(what: &str) -> WireError {
    WireError(format!("must be {what}"))
}

/// A string tag outside the listed ones: `must be "a", "b" or "c"`.
pub(crate) fn one_of(tags: &[&str]) -> WireError {
    let quoted: Vec<String> = tags.iter().map(|tag| format!("\"{tag}\"")).collect();
    match quoted.split_last() {
        Some((last, rest)) if !rest.is_empty() => {
            expected(&format!("{} or {last}", rest.join(", ")))
        }
        _ => expected(&quoted.concat()),
    }
}

/// Encodes a value as JSON.
pub(crate) trait ToJson {
    fn to_value(&self) -> Value;
}

/// Decodes a value from JSON.  The lifetime lets a decoder borrow from the
/// document (`&str`, `&Value`).
pub(crate) trait FromJson<'a>: Sized {
    fn from_value(value: &'a Value) -> Result<Self, WireError>;
}

/// Builds an object from `(name, value)` members, in order.
pub(crate) fn obj(members: &[(&str, &dyn ToJson)]) -> Value {
    Value::Object(
        members
            .iter()
            .map(|&(name, value)| (name.to_string(), value.to_value()))
            .collect(),
    )
}

/// The member reader: the only code that looks members up in an object.
pub(crate) struct Obj<'a>(&'a [(String, Value)]);

impl<'a> Obj<'a> {
    /// Reads `value` as an object.
    pub(crate) fn new(value: &'a Value) -> Result<Obj<'a>, WireError> {
        match value {
            Value::Object(members) => Ok(Obj(members)),
            _ => Err(expected("an object")),
        }
    }

    /// The member `name` decoded as `T`, or `None` when it is absent.  A
    /// present member of the wrong shape is an error, `null` included
    /// (decode as `Option<T>` to accept `null`).
    pub(crate) fn opt<T: FromJson<'a>>(&self, name: &str) -> Result<Option<T>, WireError> {
        self.0
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| T::from_value(value).map_err(|e| e.at(name)))
            .transpose()
    }

    /// The member `name` decoded as `T`; absent is an error.
    pub(crate) fn req<T: FromJson<'a>>(&self, name: &str) -> Result<T, WireError> {
        self.opt(name)?
            .ok_or_else(|| WireError(format!("'{name}' is missing")))
    }
}

/// Unsigned integers travel as JSON integers.
macro_rules! json_uint {
    ($($ty:ty: $expected:literal),+ $(,)?) => {$(
        impl ToJson for $ty {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }

        impl FromJson<'_> for $ty {
            fn from_value(value: &Value) -> Result<Self, WireError> {
                value
                    .as_u64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| expected($expected))
            }
        }
    )+};
}

json_uint!(
    u64: "a non-negative integer",
    usize: "a non-negative integer",
    u32: "an integer in 0..=4294967295",
    u8: "an integer in 0..=255",
);

impl ToJson for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl FromJson<'_> for f64 {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        value.as_f64().ok_or_else(|| expected("a number"))
    }
}

impl ToJson for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson<'_> for bool {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        value.as_bool().ok_or_else(|| expected("a boolean"))
    }
}

impl ToJson for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_value(&self) -> Value {
        self.as_str().to_value()
    }
}

impl<'a> FromJson<'a> for &'a str {
    fn from_value(value: &'a Value) -> Result<Self, WireError> {
        value.as_str().ok_or_else(|| expected("a string"))
    }
}

impl FromJson<'_> for String {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        <&str>::from_value(value).map(str::to_string)
    }
}

impl ToJson for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'a> FromJson<'a> for &'a Value {
    fn from_value(value: &'a Value) -> Result<Self, WireError> {
        Ok(value)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(T::to_value).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_value(value: &'a Value) -> Result<Self, WireError> {
        value
            .as_array()
            .ok_or_else(|| expected("an array"))?
            .iter()
            .enumerate()
            .map(|(index, item)| T::from_value(item).map_err(|e| e.at(index)))
            .collect()
    }
}

/// `None` travels as `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    fn from_value(value: &'a Value) -> Result<Self, WireError> {
        match value {
            Value::Null => Ok(None),
            value => T::from_value(value).map(Some),
        }
    }
}

/// A full-range `u64` as a fixed-width hex string.  Double-based JSON
/// parsers (JS et al.) round integers above 2^53, so hashes do not travel
/// as numbers.
pub(crate) struct Hex(pub u64);

impl ToJson for Hex {
    fn to_value(&self) -> Value {
        Value::String(format!("{:016x}", self.0))
    }
}

/// Declares plain structs on the wire: one member per listed field, named
/// after the field, in the listed order.  Both directions come from the one
/// list, and the struct literal makes the compiler check it is complete.
macro_rules! json_struct {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {$(
        impl $crate::codec::ToJson for $ty {
            fn to_value(&self) -> $crate::json::Value {
                $crate::codec::obj(&[$((stringify!($field), &self.$field)),+])
            }
        }

        impl $crate::codec::FromJson<'_> for $ty {
            fn from_value(
                value: &$crate::json::Value,
            ) -> Result<Self, $crate::codec::WireError> {
                let members = $crate::codec::Obj::new(value)?;
                Ok($ty { $($field: members.req(stringify!($field))?),+ })
            }
        }
    )+};
}
pub(crate) use json_struct;

/// Declares unit enums that travel as one string tag per variant.
macro_rules! json_tags {
    ($($ty:ident { $($variant:ident => $tag:literal),+ $(,)? })+) => {$(
        impl $crate::codec::ToJson for $ty {
            fn to_value(&self) -> $crate::json::Value {
                let tag = match self {
                    $($ty::$variant => $tag),+
                };
                $crate::json::Value::String(tag.to_string())
            }
        }

        impl $crate::codec::FromJson<'_> for $ty {
            fn from_value(
                value: &$crate::json::Value,
            ) -> Result<Self, $crate::codec::WireError> {
                match value.as_str() {
                    $(Some($tag) => Ok($ty::$variant),)+
                    _ => Err($crate::codec::one_of(&[$($tag),+])),
                }
            }
        }
    )+};
}
pub(crate) use json_tags;

/// Decodes a shape tagged by the string member `$member` of the reader `$r`:
/// each arm maps a tag to the expression that decodes its variant.  The arms
/// are the one list of known tags, so an unknown tag's error lists exactly
/// them.  Returns the error from the enclosing function.
macro_rules! tagged {
    ($r:ident, $member:literal { $($tag:literal => $variant:expr),+ $(,)? }) => {
        match $r.req::<&str>($member)? {
            $($tag => $variant,)+
            _ => return Err($crate::codec::one_of(&[$($tag),+]).at($member)),
        }
    };
}
pub(crate) use tagged;
