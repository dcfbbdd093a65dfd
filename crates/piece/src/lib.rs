//! # coop-piece
//!
//! The file/piece substrate for the cooperative-computing incentive
//! simulator: data files are divided into discrete *pieces* (Section III of
//! the paper), peers track which pieces they hold in a [`Bitfield`], choose
//! what to download next with a [`PiecePicker`] (local-rarest-first by
//! default, as assumed by the paper's piece-availability model), and the
//! swarm-wide distribution of pieces is summarized by an
//! [`AvailabilityMap`].
//!
//! # Example
//!
//! ```
//! use coop_piece::{Bitfield, FileSpec};
//!
//! let file = FileSpec::new(128 * 1024 * 1024, 256 * 1024); // 128 MiB, 256 KiB pieces
//! assert_eq!(file.num_pieces(), 512);
//!
//! let mut have = Bitfield::new(file.num_pieces());
//! have.set(3);
//! assert!(have.get(3));
//! assert_eq!(have.count_ones(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod availability;
mod bitfield;
mod file;
mod index;
mod picker;

pub use availability::AvailabilityMap;
pub use bitfield::{Bitfield, Words};
pub use file::FileSpec;
pub use index::AvailabilityIndex;
pub use picker::{
    PiecePicker, PieceSelection, RandomFirstPicker, RarestFirstPicker, SequentialPicker,
};

/// Index of a piece within a file, starting at 0.
pub type PieceId = u32;
