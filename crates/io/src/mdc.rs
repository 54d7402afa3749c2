//! The monochrome display controller (MDC).
//!
//! "The MDC periodically polls a work queue kept in Firefly main memory,
//! and executes commands from the queue. ... This design provides fully
//! symmetric access to the displays by any processor." Commands do
//! BitBlt within the frame buffer or from main memory; "an optimized
//! version of BitBlt is provided to paint characters from a font cache
//! in off-screen memory. The MDC can paint a large area of the screen at
//! 16 megapixels per second, and can paint approximately 20,000 10-point
//! characters per second. ... Sixty times per second, the controller
//! deposits in Firefly memory the current mouse position and an
//! unencoded bitmap representing the current state of the keyboard."
//!
//! The controller is written in completion-driven style: it emits
//! [`DmaOp`]s and consumes [`DmaCompletion`]s through the shared
//! [`crate::iosys::IoSystem`] arbiter, because on the real machine every
//! device shares the one path through the I/O processor's cache.

use crate::dma::{DmaCompletion, DmaOp};
use crate::raster::{FrameBuffer, RasterOp, DISPLAY_HEIGHT, DISPLAY_WIDTH};
use firefly_core::Addr;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Base of the work queue in main memory: word 0 is the tail index the
/// CPUs advance; command slots follow at [`WQ_SLOTS_BASE`].
pub const WQ_BASE: Addr = Addr::new(0x0016_1c00);
/// Base of the command slots (8 words each).
pub const WQ_SLOTS_BASE: Addr = Addr::new(0x0016_1d00);
/// Number of command slots in the ring.
pub const WQ_SLOTS: u32 = 64;
/// Words per command slot.
pub const CMD_WORDS: u32 = 8;
/// Where mouse position and the keyboard bitmap are deposited at 60 Hz:
/// word 0 = packed mouse x/y, word 1 = buttons, words 2..6 = keyboard.
pub const MOUSE_KEYBOARD_BASE: Addr = Addr::new(0x0017_2000);

/// Command opcodes understood by the MDC microcode.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[repr(u32)]
pub enum Opcode {
    /// `[1, x, y, w, h, rop, 0, 0]` — fill a rectangle.
    FillRect = 1,
    /// `[2, dx, dy, w, h, sx, sy, rop]` — BitBlt within the buffer.
    Blt = 2,
    /// `[3, x, y, text_addr, len, rop, 0, 0]` — paint `len` characters
    /// read from main memory (packed 4 per word) using the font cache.
    PaintChars = 3,
}

/// Encodes a fill command for the work queue.
pub fn encode_fill(x: u32, y: u32, w: u32, h: u32, op: RasterOp) -> [u32; 8] {
    [Opcode::FillRect as u32, x, y, w, h, rop_code(op), 0, 0]
}

/// Encodes a BitBlt command for the work queue.
pub fn encode_blt(sx: u32, sy: u32, dx: u32, dy: u32, w: u32, h: u32, op: RasterOp) -> [u32; 8] {
    [Opcode::Blt as u32, dx, dy, w, h, sx, sy, rop_code(op)]
}

/// Encodes a paint-characters command for the work queue.
pub fn encode_paint(x: u32, y: u32, text: Addr, len: u32, op: RasterOp) -> [u32; 8] {
    [Opcode::PaintChars as u32, x, y, text.byte(), len, rop_code(op), 0, 0]
}

fn rop_code(op: RasterOp) -> u32 {
    match op {
        RasterOp::Copy => 0,
        RasterOp::Or => 1,
        RasterOp::And => 2,
        RasterOp::Xor => 3,
        RasterOp::Clear => 4,
        RasterOp::Set => 5,
    }
}

fn rop_decode(code: u32) -> RasterOp {
    match code {
        0 => RasterOp::Copy,
        1 => RasterOp::Or,
        2 => RasterOp::And,
        3 => RasterOp::Xor,
        4 => RasterOp::Clear,
        _ => RasterOp::Set,
    }
}

/// MDC statistics.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MdcStats {
    /// Work-queue commands executed.
    pub commands: u64,
    /// Pixels painted by fills and blts.
    pub pixels: u64,
    /// Characters painted.
    pub chars: u64,
    /// Work-queue poll reads issued.
    pub polls: u64,
    /// 60 Hz mouse/keyboard deposits performed.
    pub deposits: u64,
}

#[derive(Debug)]
enum State {
    /// Counting down to the next work-queue poll.
    Idle { poll_in: u64 },
    /// A poll read of the tail word is outstanding.
    Polling,
    /// Reading the 8 command words of slot `head`.
    ReadingCmd { got: Vec<u32> },
    /// Reading `remaining` text words for a PaintChars command.
    ReadingText { cmd: [u32; 8], text: Vec<u32>, remaining: u32 },
    /// Executing (painting) for the given number of cycles.
    Busy { cycles: u64 },
}

/// The display controller.
///
/// Drive it via [`crate::iosys::IoSystem`], or manually with the
/// [`Mdc::wants_dma`] / [`Mdc::on_completion`] / [`Mdc::tick`] triple.
pub struct Mdc {
    fb: FrameBuffer,
    queue_base: Addr,
    slots_base: Addr,
    deposit_base: Addr,
    state: State,
    head: u32,
    tail_seen: u32,
    poll_interval: u64,
    /// Pixels painted per bus cycle (16 Mpx/s = 1.6 px / 100 ns).
    pixels_per_cycle: f64,
    /// Fixed per-character overhead in cycles (command setup, font cache
    /// addressing) — tuned so ~20 k chars/s emerges.
    char_overhead_cycles: u64,
    /// 60 Hz deposit countdown.
    deposit_in: u64,
    deposit_queue: VecDeque<DmaOp>,
    mouse: (u16, u16),
    buttons: u32,
    keyboard: [u32; 4],
    stats: MdcStats,
}

/// 60 Hz in 100 ns cycles.
const DEPOSIT_INTERVAL: u64 = 166_667;

impl Mdc {
    /// A controller with the paper's throughput characteristics, a
    /// procedural 8×16 font pre-rendered into off-screen memory, and a
    /// default 20 µs poll interval, polling the default work queue at
    /// [`WQ_BASE`].
    pub fn new() -> Self {
        Mdc::with_queue(WQ_BASE, MOUSE_KEYBOARD_BASE)
    }

    /// A controller polling a custom work queue — "it is easy to plug
    /// multiple display controllers into a single Firefly" (§5); each
    /// needs its own queue and deposit area. Slots follow the queue
    /// head at +0x100, as in the default layout.
    pub fn with_queue(queue_base: Addr, deposit_base: Addr) -> Self {
        let mut fb = FrameBuffer::new();
        render_font(&mut fb);
        Mdc {
            fb,
            queue_base,
            slots_base: Addr::new(queue_base.byte() + 0x100),
            deposit_base,
            state: State::Idle { poll_in: 0 },
            head: 0,
            tail_seen: 0,
            poll_interval: 200,
            pixels_per_cycle: 1.6,
            char_overhead_cycles: 420,
            deposit_in: DEPOSIT_INTERVAL,
            deposit_queue: VecDeque::new(),
            mouse: (512, 384),
            buttons: 0,
            keyboard: [0; 4],
            stats: MdcStats::default(),
        }
    }

    /// The frame buffer (for inspection and tests).
    pub fn framebuffer(&self) -> &FrameBuffer {
        &self.fb
    }

    /// Statistics so far.
    pub fn stats(&self) -> &MdcStats {
        &self.stats
    }

    /// Moves the simulated mouse (deposited at the next 60 Hz tick).
    pub fn set_mouse(&mut self, x: u16, y: u16, buttons: u32) {
        self.mouse = (x, y);
        self.buttons = buttons;
    }

    /// Sets the simulated keyboard state bitmap.
    pub fn set_keyboard(&mut self, bitmap: [u32; 4]) {
        self.keyboard = bitmap;
    }

    /// The memory address of work-queue slot `i`, word `w`, for the
    /// default queue layout.
    pub fn slot_word(i: u32, w: u32) -> Addr {
        WQ_SLOTS_BASE.add_words((i % WQ_SLOTS) * CMD_WORDS + w)
    }

    /// The memory address of this controller's slot `i`, word `w`.
    pub fn my_slot_word(&self, i: u32, w: u32) -> Addr {
        self.slots_base.add_words((i % WQ_SLOTS) * CMD_WORDS + w)
    }

    /// This controller's queue-head address (CPUs write the tail here).
    pub fn queue_base(&self) -> Addr {
        self.queue_base
    }

    /// Advances internal timers one bus cycle.
    pub fn tick(&mut self) {
        if self.deposit_in == 0 {
            self.queue_deposit();
            self.deposit_in = DEPOSIT_INTERVAL;
        } else {
            self.deposit_in -= 1;
        }
        match &mut self.state {
            State::Idle { poll_in } => {
                *poll_in = poll_in.saturating_sub(1);
            }
            State::Busy { cycles } => {
                *cycles = cycles.saturating_sub(1);
                if *cycles == 0 {
                    self.head = self.head.wrapping_add(1);
                    self.state = State::Idle { poll_in: 0 };
                }
            }
            _ => {}
        }
    }

    /// The first cycle from `from` on that its tick, or while the DMA
    /// engine is `dma_idle` its [`wants_dma`](Mdc::wants_dma), acts.
    pub(crate) fn wake(&self, from: u64, dma_idle: bool) -> u64 {
        let state = match self.state {
            _ if dma_idle && !self.deposit_queue.is_empty() => from,
            State::Idle { poll_in } if dma_idle => from + poll_in,
            State::ReadingCmd { .. } | State::ReadingText { .. } if dma_idle => from,
            State::Busy { cycles } => from + cycles.saturating_sub(1),
            _ => u64::MAX,
        };
        state.min(from + self.deposit_in)
    }

    /// Credits `n` ticks before [`wake`](Mdc::wake).
    pub(crate) fn advance_idle(&mut self, n: u64) {
        self.deposit_in -= n;
        match &mut self.state {
            State::Idle { poll_in } => *poll_in = poll_in.saturating_sub(n),
            State::Busy { cycles } => *cycles -= n,
            _ => {}
        }
    }

    fn queue_deposit(&mut self) {
        self.stats.deposits += 1;
        let base = self.deposit_base;
        let packed = (u32::from(self.mouse.0) << 16) | u32::from(self.mouse.1);
        self.deposit_queue.push_back(DmaOp::Write { addr: base, value: packed, tag: 0 });
        self.deposit_queue.push_back(DmaOp::Write {
            addr: base.add_words(1),
            value: self.buttons,
            tag: 0,
        });
        for (i, kw) in self.keyboard.iter().enumerate() {
            self.deposit_queue.push_back(DmaOp::Write {
                addr: base.add_words(2 + i as u32),
                value: *kw,
                tag: 0,
            });
        }
    }

    /// The next DMA word the controller wants, if any.
    pub fn wants_dma(&mut self) -> Option<DmaOp> {
        // Deposits take precedence (they are tiny and timely).
        if let Some(op) = self.deposit_queue.pop_front() {
            return Some(op);
        }
        match &self.state {
            State::Idle { poll_in: 0 } => {
                self.stats.polls += 1;
                self.state = State::Polling;
                Some(DmaOp::Read { addr: self.queue_base, tag: 1 })
            }
            State::ReadingCmd { got } if (got.len() as u32) < CMD_WORDS => {
                let w = got.len() as u32;
                Some(DmaOp::Read { addr: self.my_slot_word(self.head, w), tag: 2 })
            }
            State::ReadingText { cmd, text, remaining } if *remaining > 0 => {
                let text_base = Addr::new(cmd[3]);
                let _ = remaining;
                Some(DmaOp::Read { addr: text_base.add_words(text.len() as u32), tag: 3 })
            }
            _ => None,
        }
    }

    /// Feeds a DMA completion back to the controller.
    pub fn on_completion(&mut self, c: DmaCompletion) {
        match (&mut self.state, c.tag) {
            (State::Polling, 1) => {
                self.tail_seen = c.value;
                if self.tail_seen != self.head {
                    self.state = State::ReadingCmd { got: Vec::with_capacity(8) };
                } else {
                    self.state = State::Idle { poll_in: self.poll_interval };
                }
            }
            (State::ReadingCmd { got }, 2) => {
                got.push(c.value);
                if got.len() as u32 == CMD_WORDS {
                    let mut cmd = [0u32; 8];
                    cmd.copy_from_slice(got);
                    self.begin_command(cmd);
                }
            }
            (State::ReadingText { cmd, text, remaining }, 3) => {
                text.push(c.value);
                *remaining -= 1;
                if *remaining == 0 {
                    let cmd = *cmd;
                    let text = std::mem::take(text);
                    self.paint_chars(cmd, &text);
                }
            }
            // Deposit completions (tag 0) need no action.
            _ => {}
        }
    }

    fn begin_command(&mut self, cmd: [u32; 8]) {
        match cmd[0] {
            1 => {
                let (x, y, w, h) = (cmd[1], cmd[2], cmd[3], cmd[4]);
                let (w, h) = clamp_rect(x, y, w, h);
                let pixels = self.fb.fill_rect(x, y, w, h, rop_decode(cmd[5]));
                self.finish_paint(pixels, 0);
            }
            2 => {
                let (dx, dy, w, h, sx, sy) = (cmd[1], cmd[2], cmd[3], cmd[4], cmd[5], cmd[6]);
                let (w, h) = clamp_rect(dx.max(sx), dy.max(sy), w, h);
                let pixels = self.fb.bitblt(sx, sy, dx, dy, w, h, rop_decode(cmd[7]));
                self.finish_paint(pixels, 0);
            }
            3 => {
                let len = cmd[4];
                let words = len.div_ceil(4);
                if words == 0 {
                    self.finish_paint(0, 0);
                } else {
                    self.state = State::ReadingText {
                        cmd,
                        text: Vec::with_capacity(words as usize),
                        remaining: words,
                    };
                }
            }
            _ => {
                // Unknown opcode: skip the slot (real microcode would
                // wedge; the simulator prefers to keep the queue moving).
                self.finish_paint(0, 0);
            }
        }
    }

    fn paint_chars(&mut self, cmd: [u32; 8], text: &[u32]) {
        let (mut x, y, len) = (cmd[1], cmd[2], cmd[4]);
        let op = rop_decode(cmd[5]);
        let mut painted = 0u64;
        let mut chars = 0u64;
        for i in 0..len {
            let byte = (text[(i / 4) as usize] >> (24 - 8 * (i % 4))) & 0xff;
            let (gx, gy) = glyph_pos(byte as u8);
            if x + GLYPH_W <= DISPLAY_WIDTH && y + GLYPH_H <= DISPLAY_HEIGHT {
                painted += self.fb.bitblt(gx, gy, x, y, GLYPH_W, GLYPH_H, op);
                chars += 1;
            }
            x += GLYPH_W;
        }
        self.stats.chars += chars;
        self.finish_paint(painted, chars * self.char_overhead_cycles);
    }

    fn finish_paint(&mut self, pixels: u64, extra_cycles: u64) {
        self.stats.commands += 1;
        self.stats.pixels += pixels;
        let cycles = (pixels as f64 / self.pixels_per_cycle).ceil() as u64 + extra_cycles + 1;
        self.state = State::Busy { cycles };
    }
}

fn clamp_rect(x: u32, y: u32, w: u32, h: u32) -> (u32, u32) {
    let w = w.min(DISPLAY_WIDTH.saturating_sub(x));
    let h = h.min(crate::raster::BUFFER_HEIGHT.saturating_sub(y));
    (w, h)
}

/// Glyph geometry of the built-in font.
pub const GLYPH_W: u32 = 8;
/// Glyph height.
pub const GLYPH_H: u32 = 16;

/// Where glyph `g` lives in the off-screen font cache.
pub fn glyph_pos(g: u8) -> (u32, u32) {
    let g = u32::from(g);
    ((g % 128) * GLYPH_W, DISPLAY_HEIGHT + (g / 128) * GLYPH_H)
}

/// Renders a procedural 8×16 font into the off-screen region: each
/// glyph gets a distinctive (code-derived) bit pattern — not legible
/// typography, but verifiable pixels with realistic densities.
fn render_font(fb: &mut FrameBuffer) {
    for g in 0u32..=255 {
        let (gx, gy) = glyph_pos(g as u8);
        for row in 0..GLYPH_H {
            // A per-glyph LFSR-ish pattern; ~50% density like text.
            let bits = (g.wrapping_mul(2654435761).rotate_left(row) ^ (row * 0x9d)) & 0xff;
            for col in 0..GLYPH_W {
                if bits >> (7 - col) & 1 == 1 {
                    fb.set_pixel(gx + col, gy + row, true);
                }
            }
        }
    }
}

impl Default for Mdc {
    fn default() -> Self {
        Mdc::new()
    }
}

impl fmt::Debug for Mdc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mdc").field("head", &self.head).field("stats", &self.stats).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the controller against a fake "memory" closure until idle.
    fn run_standalone(mdc: &mut Mdc, mut mem: impl FnMut(&DmaOp) -> u32, cycles: u64) {
        for _ in 0..cycles {
            if let Some(op) = mdc.wants_dma() {
                mdc.on_completion(op.complete(mem(&op)));
            }
            mdc.tick();
        }
    }

    /// A memory image holding one queued command.
    fn memory_with_command(cmd: [u32; 8]) -> impl FnMut(&DmaOp) -> u32 {
        move |op| match op {
            DmaOp::Read { addr, .. } if *addr == WQ_BASE => 1, // tail = 1, head = 0
            DmaOp::Read { addr, .. } => {
                let w = (addr.byte() - WQ_SLOTS_BASE.byte()) / 4;
                if w < 8 {
                    cmd[w as usize]
                } else {
                    0
                }
            }
            DmaOp::Write { .. } => 0,
        }
    }

    #[test]
    fn fill_command_paints() {
        let mut mdc = Mdc::new();
        let before = mdc.framebuffer().count_set_rect(100, 100, 32, 8);
        assert_eq!(before, 0);
        run_standalone(
            &mut mdc,
            memory_with_command(encode_fill(100, 100, 32, 8, RasterOp::Set)),
            5_000,
        );
        assert_eq!(mdc.framebuffer().count_set_rect(100, 100, 32, 8), 256);
        assert_eq!(mdc.stats().commands, 1);
        assert_eq!(mdc.stats().pixels, 256);
    }

    #[test]
    fn blt_command_copies_from_font_cache_region() {
        let mut mdc = Mdc::new();
        let (gx, gy) = glyph_pos(b'A');
        let glyph_pixels = mdc.framebuffer().count_set_rect(gx, gy, GLYPH_W, GLYPH_H);
        assert!(glyph_pixels > 0, "the font cache has content");
        run_standalone(
            &mut mdc,
            memory_with_command(encode_blt(gx, gy, 10, 20, GLYPH_W, GLYPH_H, RasterOp::Copy)),
            5_000,
        );
        assert_eq!(mdc.framebuffer().count_set_rect(10, 20, GLYPH_W, GLYPH_H), glyph_pixels);
    }

    #[test]
    fn paint_chars_draws_text() {
        let mut mdc = Mdc::new();
        let text_addr = Addr::new(0x0030_0000);
        let cmd = encode_paint(0, 0, text_addr, 4, RasterOp::Copy);
        let mut mem = move |op: &DmaOp| match op {
            DmaOp::Read { addr, .. } if *addr == WQ_BASE => 1,
            DmaOp::Read { addr, .. } if addr.byte() >= text_addr.byte() => {
                u32::from_be_bytes(*b"ABCD")
            }
            DmaOp::Read { addr, .. } => {
                let w = (addr.byte() - WQ_SLOTS_BASE.byte()) / 4;
                cmd[w as usize]
            }
            DmaOp::Write { .. } => 0,
        };
        run_standalone(&mut mdc, &mut mem, 10_000);
        assert_eq!(mdc.stats().chars, 4);
        assert!(mdc.framebuffer().count_set_rect(0, 0, 32, 16) > 0);
    }

    #[test]
    fn deposits_happen_at_sixty_hertz() {
        let mut mdc = Mdc::new();
        let mut writes = 0u64;
        let mut mem = |op: &DmaOp| {
            if matches!(op, DmaOp::Write { .. }) {
                writes += 1;
            }
            0 // empty queue: tail == head == 0
        };
        // Half a second of simulated time.
        run_standalone(&mut mdc, &mut mem, 5_000_000 / 2 * 2);
        let deposits = mdc.stats().deposits;
        assert!((28..=32).contains(&deposits), "~30 deposits in 0.5 s, got {deposits}");
        assert_eq!(writes, deposits * 6, "six words per deposit");
    }

    /// The §5 fill-rate claim: 16 megapixels per second.
    #[test]
    fn fill_rate_is_sixteen_megapixels_per_second() {
        let mut mdc = Mdc::new();
        // 1024 x 256 = 262144 pixels should take ~16.4 ms = 163840 cycles.
        let mut mem = memory_with_command(encode_fill(0, 0, 1024, 256, RasterOp::Set));
        let mut cycles = 0u64;
        loop {
            if let Some(op) = mdc.wants_dma() {
                mdc.on_completion(op.complete(mem(&op)));
            }
            mdc.tick();
            cycles += 1;
            if mdc.stats().commands == 1 {
                if let State::Idle { .. } = mdc.state {
                    break;
                }
            }
            assert!(cycles < 1_000_000, "fill never completed");
        }
        let seconds = cycles as f64 * 100e-9;
        let mpx_per_s = 262_144.0 / seconds / 1e6;
        assert!((14.0..18.0).contains(&mpx_per_s), "fill rate {mpx_per_s:.1} Mpx/s");
    }

    #[test]
    fn font_glyphs_are_distinct() {
        let mdc = Mdc::new();
        let (ax, ay) = glyph_pos(b'A');
        let (bx, by) = glyph_pos(b'B');
        let mut differ = false;
        for r in 0..GLYPH_H {
            for c in 0..GLYPH_W {
                if mdc.framebuffer().pixel(ax + c, ay + r)
                    != mdc.framebuffer().pixel(bx + c, by + r)
                {
                    differ = true;
                }
            }
        }
        assert!(differ, "glyphs A and B render differently");
    }
}
