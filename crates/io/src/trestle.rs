//! Trestle, the Topaz window manager.
//!
//! "The Trestle window manager handles allocation of display real estate
//! and multiplexing of the keyboard and mouse among applications" and
//! "provides both tiled and overlapping windows" (§4). Applications talk
//! to it by RPC; it talks to the display by enqueueing MDC commands.
//!
//! This model implements the substance of that job: a z-ordered window
//! tree, *visible-region* computation by rectangle subtraction (the
//! algorithm every 1980s window system lived on), input multiplexing by
//! hit-testing, tiling layout, and redraw as a stream of MDC work-queue
//! commands ([`Trestle::redraw_commands`]) that the real
//! [`crate::mdc::Mdc`] executes.

use crate::mdc::{encode_fill, CMD_WORDS};
use crate::raster::{RasterOp, DISPLAY_HEIGHT, DISPLAY_WIDTH};
use serde::{Deserialize, Serialize};
use std::error;
use std::fmt;

/// Identifies a window.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct WindowId(u32);

impl fmt::Display for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// An axis-aligned rectangle in display coordinates.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge.
    pub x: u32,
    /// Top edge.
    pub y: u32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Rect {
    /// A rectangle; zero-sized rectangles are legal (and empty).
    pub const fn new(x: u32, y: u32, w: u32, h: u32) -> Self {
        Rect { x, y, w, h }
    }

    /// Whether the rectangle covers no pixels.
    pub const fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Area in pixels.
    pub const fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// Whether `(px, py)` lies inside.
    pub const fn contains(&self, px: u32, py: u32) -> bool {
        px >= self.x && px < self.x + self.w && py >= self.y && py < self.y + self.h
    }

    /// The intersection, if any.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x1 = self.x.max(other.x);
        let y1 = self.y.max(other.y);
        let x2 = (self.x + self.w).min(other.x + other.w);
        let y2 = (self.y + self.h).min(other.y + other.h);
        if x1 < x2 && y1 < y2 {
            Some(Rect::new(x1, y1, x2 - x1, y2 - y1))
        } else {
            None
        }
    }

    /// `self` minus `other`: up to four disjoint rectangles covering the
    /// remainder. The backbone of visible-region maintenance.
    pub fn subtract(&self, other: &Rect) -> Vec<Rect> {
        let Some(cut) = self.intersect(other) else {
            return vec![*self];
        };
        let mut out = Vec::with_capacity(4);
        // Band above the cut.
        if cut.y > self.y {
            out.push(Rect::new(self.x, self.y, self.w, cut.y - self.y));
        }
        // Band below.
        let self_bottom = self.y + self.h;
        let cut_bottom = cut.y + cut.h;
        if cut_bottom < self_bottom {
            out.push(Rect::new(self.x, cut_bottom, self.w, self_bottom - cut_bottom));
        }
        // Left and right slivers beside the cut.
        if cut.x > self.x {
            out.push(Rect::new(self.x, cut.y, cut.x - self.x, cut.h));
        }
        let self_right = self.x + self.w;
        let cut_right = cut.x + cut.w;
        if cut_right < self_right {
            out.push(Rect::new(cut_right, cut.y, self_right - cut_right, cut.h));
        }
        out.retain(|r| !r.is_empty());
        out
    }
}

/// Trestle errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrestleError {
    /// The window rectangle leaves the visible display.
    OffScreen(Rect),
    /// No such window.
    NoSuchWindow(WindowId),
    /// A zero-sized window was requested.
    EmptyWindow,
}

impl fmt::Display for TrestleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrestleError::OffScreen(r) => write!(f, "window {r:?} leaves the display"),
            TrestleError::NoSuchWindow(w) => write!(f, "no window {w}"),
            TrestleError::EmptyWindow => f.write_str("zero-sized window"),
        }
    }
}

impl error::Error for TrestleError {}

#[derive(Debug, Clone)]
struct Window {
    id: WindowId,
    rect: Rect,
    /// Fill pattern used for the window body on redraw (distinguishes
    /// windows in the frame buffer for tests).
    shade: RasterOp,
}

/// The window manager: a z-ordered window list (index 0 = bottom).
///
/// # Examples
///
/// ```
/// use firefly_io::trestle::{Rect, Trestle};
///
/// let mut t = Trestle::new();
/// let a = t.create(Rect::new(0, 0, 400, 300))?;
/// let b = t.create(Rect::new(200, 100, 400, 300))?; // overlaps a
/// // b is on top: the pointer at (300, 200) goes to b.
/// assert_eq!(t.window_at(300, 200), Some(b));
/// // a's visible region lost the overlap.
/// let visible: u64 = t.visible_region(a)?.iter().map(|r| r.area()).sum();
/// assert!(visible < 400 * 300);
/// # Ok::<(), firefly_io::trestle::TrestleError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trestle {
    windows: Vec<Window>,
    next: u32,
    focus: Option<WindowId>,
}

impl Trestle {
    /// An empty screen.
    pub fn new() -> Self {
        Trestle::default()
    }

    /// Creates a window on top of the stack and gives it focus.
    ///
    /// # Errors
    ///
    /// [`TrestleError::EmptyWindow`] for zero-sized rectangles,
    /// [`TrestleError::OffScreen`] if the rectangle leaves the visible
    /// 1024×768 display.
    pub fn create(&mut self, rect: Rect) -> Result<WindowId, TrestleError> {
        if rect.is_empty() {
            return Err(TrestleError::EmptyWindow);
        }
        if rect.x + rect.w > DISPLAY_WIDTH || rect.y + rect.h > DISPLAY_HEIGHT {
            return Err(TrestleError::OffScreen(rect));
        }
        let id = WindowId(self.next);
        self.next += 1;
        // Alternate shades so adjacent windows are distinguishable.
        let shade = if id.0.is_multiple_of(2) { RasterOp::Set } else { RasterOp::Clear };
        self.windows.push(Window { id, rect, shade });
        self.focus = Some(id);
        Ok(id)
    }

    /// Closes a window.
    ///
    /// # Errors
    ///
    /// [`TrestleError::NoSuchWindow`] if it does not exist.
    pub fn close(&mut self, id: WindowId) -> Result<(), TrestleError> {
        let i = self.index_of(id)?;
        self.windows.remove(i);
        if self.focus == Some(id) {
            self.focus = self.windows.last().map(|w| w.id);
        }
        Ok(())
    }

    /// Raises a window to the top (and focuses it).
    ///
    /// # Errors
    ///
    /// [`TrestleError::NoSuchWindow`] if it does not exist.
    pub fn raise(&mut self, id: WindowId) -> Result<(), TrestleError> {
        let i = self.index_of(id)?;
        let w = self.windows.remove(i);
        self.windows.push(w);
        self.focus = Some(id);
        Ok(())
    }

    /// Moves a window.
    ///
    /// # Errors
    ///
    /// [`TrestleError::NoSuchWindow`] / [`TrestleError::OffScreen`].
    pub fn move_to(&mut self, id: WindowId, x: u32, y: u32) -> Result<(), TrestleError> {
        let i = self.index_of(id)?;
        let r = self.windows[i].rect;
        if x + r.w > DISPLAY_WIDTH || y + r.h > DISPLAY_HEIGHT {
            return Err(TrestleError::OffScreen(Rect::new(x, y, r.w, r.h)));
        }
        self.windows[i].rect = Rect::new(x, y, r.w, r.h);
        Ok(())
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no windows exist.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The focused window (keyboard events go here).
    pub fn focus(&self) -> Option<WindowId> {
        self.focus
    }

    /// The topmost window containing the point — mouse multiplexing.
    /// Clicking also moves focus (call [`Trestle::click`]).
    pub fn window_at(&self, x: u32, y: u32) -> Option<WindowId> {
        self.windows.iter().rev().find(|w| w.rect.contains(x, y)).map(|w| w.id)
    }

    /// Routes a click: focuses and raises the window under the pointer.
    pub fn click(&mut self, x: u32, y: u32) -> Option<WindowId> {
        let hit = self.window_at(x, y)?;
        self.raise(hit).expect("hit window exists");
        Some(hit)
    }

    /// The window's frame rectangle.
    ///
    /// # Errors
    ///
    /// [`TrestleError::NoSuchWindow`] if it does not exist.
    pub fn frame(&self, id: WindowId) -> Result<Rect, TrestleError> {
        Ok(self.windows[self.index_of(id)?].rect)
    }

    /// The parts of the window not occluded by higher windows, as
    /// disjoint rectangles.
    ///
    /// # Errors
    ///
    /// [`TrestleError::NoSuchWindow`] if it does not exist.
    pub fn visible_region(&self, id: WindowId) -> Result<Vec<Rect>, TrestleError> {
        let i = self.index_of(id)?;
        let mut region = vec![self.windows[i].rect];
        for above in &self.windows[i + 1..] {
            region = region.iter().flat_map(|r| r.subtract(&above.rect)).collect();
            if region.is_empty() {
                break;
            }
        }
        Ok(region)
    }

    /// Retiles every window into a `columns`-wide grid — the tiled mode.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero.
    pub fn tile(&mut self, columns: u32) {
        assert!(columns > 0, "need at least one column");
        let n = self.windows.len() as u32;
        if n == 0 {
            return;
        }
        let rows = n.div_ceil(columns);
        let cell_w = DISPLAY_WIDTH / columns;
        let cell_h = DISPLAY_HEIGHT / rows;
        for (i, w) in self.windows.iter_mut().enumerate() {
            let col = i as u32 % columns;
            let row = i as u32 / columns;
            w.rect = Rect::new(col * cell_w, row * cell_h, cell_w, cell_h);
        }
    }

    /// Emits MDC work-queue commands that repaint the screen back to
    /// front: desktop clear, then each window's visible region filled
    /// with its shade plus a one-pixel border. Feed these to
    /// [`crate::mdc::Mdc`] via its work queue.
    pub fn redraw_commands(&self) -> Vec<[u32; CMD_WORDS as usize]> {
        let mut cmds = vec![encode_fill(0, 0, DISPLAY_WIDTH, DISPLAY_HEIGHT, RasterOp::Clear)];
        for w in &self.windows {
            // Visible body.
            for r in self.visible_region(w.id).expect("window exists") {
                cmds.push(encode_fill(r.x, r.y, r.w, r.h, w.shade));
            }
            // Top border strip (clipped to visibility is overkill for a
            // model; the MDC clamps at the display edge).
            let f = w.rect;
            cmds.push(encode_fill(f.x, f.y, f.w, 1, RasterOp::Xor));
        }
        cmds
    }

    fn index_of(&self, id: WindowId) -> Result<usize, TrestleError> {
        self.windows.iter().position(|w| w.id == id).ok_or(TrestleError::NoSuchWindow(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_algebra() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Some(Rect::new(5, 5, 5, 5)));
        assert_eq!(a.intersect(&Rect::new(20, 20, 2, 2)), None);
        let parts = a.subtract(&b);
        let area: u64 = parts.iter().map(Rect::area).sum();
        assert_eq!(area, 100 - 25, "subtraction preserves area");
        // Parts are disjoint.
        for (i, p) in parts.iter().enumerate() {
            for q in &parts[i + 1..] {
                assert!(p.intersect(q).is_none(), "{p:?} overlaps {q:?}");
            }
        }
        // Disjoint subtraction returns self.
        assert_eq!(a.subtract(&Rect::new(50, 50, 1, 1)), vec![a]);
        // Total occlusion returns nothing.
        assert!(a.subtract(&Rect::new(0, 0, 20, 20)).is_empty());
    }

    #[test]
    fn create_validates() {
        let mut t = Trestle::new();
        assert_eq!(t.create(Rect::new(0, 0, 0, 10)), Err(TrestleError::EmptyWindow));
        assert!(matches!(t.create(Rect::new(1000, 0, 100, 100)), Err(TrestleError::OffScreen(_))));
        assert!(t.create(Rect::new(0, 0, 1024, 768)).is_ok());
    }

    #[test]
    fn overlap_and_visible_region() {
        let mut t = Trestle::new();
        let a = t.create(Rect::new(0, 0, 100, 100)).unwrap();
        let _b = t.create(Rect::new(50, 50, 100, 100)).unwrap();
        let vis: u64 = t.visible_region(a).unwrap().iter().map(Rect::area).sum();
        assert_eq!(vis, 100 * 100 - 50 * 50);
        // Raise a back above b: fully visible again.
        t.raise(a).unwrap();
        let vis: u64 = t.visible_region(a).unwrap().iter().map(Rect::area).sum();
        assert_eq!(vis, 100 * 100);
    }

    #[test]
    fn totally_occluded_window_has_no_visible_region() {
        let mut t = Trestle::new();
        let a = t.create(Rect::new(10, 10, 50, 50)).unwrap();
        let _big = t.create(Rect::new(0, 0, 200, 200)).unwrap();
        assert!(t.visible_region(a).unwrap().is_empty());
    }

    #[test]
    fn mouse_multiplexing() {
        let mut t = Trestle::new();
        let a = t.create(Rect::new(0, 0, 100, 100)).unwrap();
        let b = t.create(Rect::new(50, 50, 100, 100)).unwrap();
        assert_eq!(t.window_at(10, 10), Some(a));
        assert_eq!(t.window_at(75, 75), Some(b), "topmost wins in the overlap");
        assert_eq!(t.window_at(500, 500), None);
        assert_eq!(t.focus(), Some(b));
        // Clicking a raises and focuses it.
        assert_eq!(t.click(10, 10), Some(a));
        assert_eq!(t.focus(), Some(a));
        assert_eq!(t.window_at(75, 75), Some(a), "a now covers the overlap");
    }

    #[test]
    fn close_refocuses() {
        let mut t = Trestle::new();
        let a = t.create(Rect::new(0, 0, 10, 10)).unwrap();
        let b = t.create(Rect::new(20, 0, 10, 10)).unwrap();
        assert_eq!(t.focus(), Some(b));
        t.close(b).unwrap();
        assert_eq!(t.focus(), Some(a));
        assert_eq!(t.close(b), Err(TrestleError::NoSuchWindow(b)));
    }

    #[test]
    fn tiling_covers_without_overlap() {
        let mut t = Trestle::new();
        let ids: Vec<_> = (0..4).map(|_| t.create(Rect::new(0, 0, 10, 10)).unwrap()).collect();
        t.tile(2);
        // Every window fully visible (tiled = disjoint).
        for &id in &ids {
            let vis: u64 = t.visible_region(id).unwrap().iter().map(Rect::area).sum();
            assert_eq!(vis, t.frame(id).unwrap().area(), "{id}");
        }
        // Frames are disjoint and sized as a 2x2 grid.
        let f = t.frame(ids[3]).unwrap();
        assert_eq!((f.w, f.h), (512, 384));
    }

    #[test]
    fn redraw_paints_through_the_real_mdc() {
        use crate::dma::DmaOp;
        use crate::mdc::{Mdc, WQ_BASE};

        let mut t = Trestle::new();
        t.create(Rect::new(100, 100, 200, 150)).unwrap(); // shade: Set
        let cmds = t.redraw_commands();

        // Serve the command stream to an MDC from a fake memory.
        let mut mdc = Mdc::new();
        let total = cmds.len() as u32;
        let mem = move |op: &DmaOp| match op {
            DmaOp::Read { addr, .. } if *addr == WQ_BASE => total,
            DmaOp::Read { addr, .. } => {
                let w = (addr.byte() - crate::mdc::WQ_SLOTS_BASE.byte()) / 4;
                let (slot, word) = (w / 8, w % 8);
                cmds.get(slot as usize).map_or(0, |c| c[word as usize])
            }
            DmaOp::Write { .. } => 0,
        };
        for _ in 0..2_000_000 {
            if let Some(op) = mdc.wants_dma() {
                mdc.on_completion(op.complete(mem(&op)));
            }
            mdc.tick();
            if mdc.stats().commands >= total as u64 {
                break;
            }
        }
        assert_eq!(mdc.stats().commands, total as u64);
        // The window body is painted (border XORed the top row).
        assert_eq!(mdc.framebuffer().count_set_rect(100, 101, 200, 149), 200 * 149);
        // The desktop outside stays clear.
        assert_eq!(mdc.framebuffer().count_set_rect(400, 400, 50, 50), 0);
    }
}
