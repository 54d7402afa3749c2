//! # firefly-io
//!
//! The Firefly's I/O system: "Input-output is done via a standard DEC
//! QBus. Input-output devices are an Ethernet controller, fixed disks,
//! and a monochrome 1024 x 768 display with keyboard and mouse."
//!
//! The hardware is asymmetric — only the primary processor reaches the
//! QBus — but "there is no difficulty with an asymmetric hardware
//! implementation, provided that the *abstraction* presented by the I/O
//! system is symmetric" (§3). That asymmetry is modeled exactly: every
//! DMA reference goes through the I/O processor's cache (port 0) and
//! does not allocate on miss.
//!
//! * [`qbus`] — the 22-bit QBus with map registers into the 24-bit
//!   Firefly physical space.
//! * [`dma`] — the DMA engine: paced word transfers through port 0
//!   ("when fully loaded, the QBus consumes about 30% of the main memory
//!   bandwidth").
//! * [`deqna`] — the DEQNA Ethernet controller, including the
//!   specialized interprocessor interrupt any processor uses to start a
//!   transmit (§3, footnote 2).
//! * [`rqdx3`] — the RQDX3 buffered disk controller with seek/rotation
//!   timing.
//! * [`raster`] — the frame buffer and a real BitBlt engine (the MDC's
//!   display primitive, after Ingalls).
//! * [`mdc`] — the monochrome display controller: a microcoded engine
//!   that polls a work queue in main memory by DMA, executes BitBlt
//!   commands, paints characters from a font cache, and deposits mouse
//!   and keyboard state sixty times a second.
//! * [`iosys`] — the composition: one QBus arbitrating the devices onto
//!   the I/O processor's port.
//! * [`trestle`] — the Trestle window manager model (§4): z-ordered
//!   windows, visible-region maintenance, input multiplexing, tiling,
//!   and redraw as MDC command streams.
//! * [`fileio`] — file-system read-ahead and write-behind over the disk
//!   (the §6 threads-in-the-file-system claim).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod deqna;
pub mod dma;
pub mod fileio;
pub mod iosys;
pub mod mdc;
pub mod qbus;
pub mod raster;
pub mod rqdx3;
pub mod trestle;

pub use deqna::Deqna;
pub use dma::DmaEngine;
pub use iosys::IoSystem;
pub use mdc::Mdc;
pub use qbus::QBus;
pub use raster::{FrameBuffer, RasterOp};
pub use rqdx3::Rqdx3;
