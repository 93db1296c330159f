//! # hcc-adts — production data types for the hybrid runtime
//!
//! Each type module states only what is particular to its type:
//!
//! 1. a [`hcc_core::runtime::RuntimeAdt`] — compact version + intent
//!    summaries (the appendix pattern), with its redo codec;
//! 2. a hybrid [`hcc_core::runtime::LockSpec`] encoding the paper's derived
//!    conflict relation (the symmetric closure of the type's minimal
//!    dependency relation), response-aware where the paper's is
//!    (Account, Set, Directory);
//! 3. an [`ObjectAdt`] impl naming that relation as canonical and stating
//!    the checkpoint-image codec, next to the redo codec;
//! 4. typed operations on its handle (`credit`, `enq`, ...) plus a
//!    mapping onto the dynamic `hcc-spec` operations, so integration tests
//!    can check runtime histories against the formal specification.
//!
//! Everything else is written once, in [`object`]: [`Object<A>`] is the
//! handle every type runs under (`AccountObject = Object<AccountAdt>`,
//! `QueueObject<T> = Object<QueueAdt<T>>`, ...), with the checkpoint
//! ([`hcc_storage::Snapshot`]) and recovery ([`hcc_storage::DurableObject`])
//! glue. Declaratively defined types ([`define`]) run under the same
//! handle as `SpecObject<D> = Object<SpecAdt<D>>`.
//!
//! The types: [`account`] (Table V), [`fifo_queue`] (Tables II and III —
//! both conflict relations are provided), [`semiqueue`] (Table IV),
//! [`file`] (Table I / generalized Thomas Write Rule), and the extension
//! types [`counter`], [`set`], [`directory`].
//!
//! Every type is **self-logging**: its `RuntimeAdt::redo` serializes each
//! mutating operation as a compact JSON payload
//! (`{"op":"credit","v":…}`), which the object runtime routes into the
//! owning transaction manager's durable store automatically when one is
//! attached. `decode_redo` is the exact inverse, used by recovery replay.
//! A checkpoint image is restored by decoding it and installing it as the
//! object's committed state — no operation is re-executed.

use hcc_core::runtime::RedoDecodeError;
use serde::Deserialize;

/// Parse a redo payload into its `"op"` discriminator and the whole value.
pub(crate) fn decode_op(bytes: &[u8]) -> Result<(String, serde_json::Value), RedoDecodeError> {
    let v: serde_json::Value = serde_json::from_slice(bytes)
        .map_err(|e| RedoDecodeError::new(format!("redo payload is not JSON: {e}")))?;
    let op = v["op"]
        .as_str()
        .ok_or_else(|| RedoDecodeError::new("redo payload has no \"op\" field"))?
        .to_string();
    Ok((op, v))
}

/// Decode one typed field of a redo payload.
pub(crate) fn decode_field<T: Deserialize>(
    v: &serde_json::Value,
    key: &str,
) -> Result<T, RedoDecodeError> {
    serde_json::from_value(&v[key])
        .map_err(|e| RedoDecodeError::new(format!("redo field {key:?}: {e}")))
}

pub mod account;
pub mod counter;
pub mod define;
pub mod directory;
pub mod fifo_queue;
pub mod file;
pub mod object;
pub mod semiqueue;
pub mod set;

pub use account::AccountObject;
pub use counter::CounterObject;
pub use define::SpecObject;
pub use directory::DirectoryObject;
pub use fifo_queue::QueueObject;
pub use file::FileObject;
pub use object::{Object, ObjectAdt};
pub use semiqueue::SemiqueueObject;
pub use set::SetObject;
