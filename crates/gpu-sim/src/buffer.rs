//! Device-memory buffers.
//!
//! Device memory is host memory here, so the workspace follows one rule: **a
//! [`DeviceBuffer`] exists only where the blocks of a launch write concurrently.** It is
//! made from a `Vec` and handed back as a `Vec` by move ([`DeviceBuffer::from_vec`] /
//! [`DeviceBuffer::into_vec`]), and every read-only kernel operand is a plain `&[T]`.
//! Nothing is copied in or out: what a host/device transfer would cost is charged
//! analytically ([`crate::transfer`]), never paid by an element-wise copy. A block may
//! store a range it owns in one call ([`DeviceBuffer::write_range`]); that is a kernel's
//! own store into its output, still not a copy in or out.
//!
//! Simulated kernels receive shared references to buffers and may write elements
//! concurrently from many blocks, mirroring CUDA semantics where the programmer is
//! responsible for ensuring that concurrently-executing threads write disjoint locations.
//! Concurrent writes to the *same* element are a bug in the kernel (as they would be on a
//! real GPU) and are not detected.

use std::cell::UnsafeCell;
use std::mem::ManuallyDrop;

/// A linear device-memory allocation of `Copy` elements with interior mutability.
///
/// The buffer is `Sync`, so simulated thread blocks running on different host threads can
/// write into it simultaneously. Just like global memory on a real GPU, the simulator does
/// not arbitrate conflicting writes: kernels must partition their output index ranges.
pub struct DeviceBuffer<T> {
    data: Vec<UnsafeCell<T>>,
}

// SAFETY: access discipline is delegated to kernel authors exactly as CUDA delegates it to
// kernel authors; all types stored are `Copy` plain-old-data, and the simulator's kernels
// write disjoint element ranges per block.
unsafe impl<T: Send> Sync for DeviceBuffer<T> {}
unsafe impl<T: Send> Send for DeviceBuffer<T> {}

impl<T: Copy> DeviceBuffer<T> {
    /// Takes ownership of `v` as a device buffer; the allocation is kept, not copied.
    pub fn from_vec(v: Vec<T>) -> Self {
        let mut v = ManuallyDrop::new(v);
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the element size and
        // alignment — and with them the allocation's layout — are unchanged; pointer,
        // length and capacity come from a live `Vec` that is not dropped.
        let data = unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast(), v.len(), v.capacity()) };
        DeviceBuffer { data }
    }

    /// Hands the buffer back to the host as a `Vec`; the allocation is kept, not copied.
    pub fn into_vec(self) -> Vec<T> {
        let mut data = ManuallyDrop::new(self.data);
        // SAFETY: the inverse of `from_vec` — same layout by `repr(transparent)`, and
        // owning `self` means no kernel still holds a reference into the buffer.
        unsafe { Vec::from_raw_parts(data.as_mut_ptr().cast(), data.len(), data.capacity()) }
    }

    /// Allocates a buffer of `len` elements, each initialized to `init`.
    pub fn filled(len: usize, init: T) -> Self {
        Self::from_vec(vec![init; len])
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.data.len(),
            "DeviceBuffer read out of bounds: {} >= {}",
            i,
            self.data.len()
        );
        unsafe { *self.data[i].get() }
    }

    /// Writes `v` to element `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        assert!(
            i < self.data.len(),
            "DeviceBuffer write out of bounds: {} >= {}",
            i,
            self.data.len()
        );
        unsafe { *self.data[i].get() = v };
    }

    /// Snapshots the buffer contents while kernels may still hold it. Only for callers
    /// whose algorithm needs the copy; a finished buffer leaves through
    /// [`DeviceBuffer::into_vec`].
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.data.len())
            .map(|i| unsafe { *self.data[i].get() })
            .collect()
    }

    /// Writes `values` to the sub-range `[start, start + values.len())` of the buffer in
    /// one store, for a block storing a range it owns.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn write_range(&self, start: usize, values: &[T]) {
        assert!(
            self.range_fits(start, values.len()),
            "write_range out of bounds"
        );
        // SAFETY: `[start, start + values.len())` lies inside `data` (checked above), and
        // `UnsafeCell<T>` is `repr(transparent)` over `T`, so those cells are that many
        // contiguous `T`s that `UnsafeCell::raw_get` may write through a shared reference.
        // `values` cannot overlap them: safe code has no `&[T]` into a `DeviceBuffer`. No
        // other block touches the range, by the disjoint-writes rule of the module docs.
        unsafe {
            let dst = UnsafeCell::raw_get(self.data.as_ptr().add(start));
            std::ptr::copy_nonoverlapping(values.as_ptr(), dst, values.len());
        }
    }

    /// True if `[start, start + len)` lies inside the buffer; an end past `usize::MAX`
    /// does not.
    fn range_fits(&self, start: usize, len: usize) -> bool {
        start
            .checked_add(len)
            .is_some_and(|end| end <= self.data.len())
    }
}

impl<T: Copy + Default> DeviceBuffer<T> {
    /// Allocates a zero/default-initialized buffer of `len` elements
    /// (the equivalent of `cudaMalloc` + `cudaMemset`).
    pub fn zeroed(len: usize) -> Self {
        Self::filled(len, T::default())
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeviceBuffer(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `from_vec(v).into_vec()` must hand back `v`'s own allocation with its contents.
    fn assert_moves<T: Copy + PartialEq + std::fmt::Debug + Send>(v: Vec<T>) {
        let (ptr, len, expect) = (v.as_ptr(), v.len(), v.clone());
        let back = DeviceBuffer::from_vec(v).into_vec();
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(back.len(), len);
        assert_eq!(back, expect);
    }

    #[test]
    fn from_vec_into_vec_is_a_move() {
        assert_moves::<u8>((0..=255).collect());
        assert_moves::<u16>((0..1000).map(|i| i * 3).collect());
        assert_moves::<u64>((0..1000).map(|i| i << 40).collect());
        assert_moves::<u8>(Vec::new());
        assert_moves::<u16>(Vec::new());
        assert_moves::<u64>(Vec::new());
    }

    #[test]
    fn zeroed_and_set_get() {
        let buf: DeviceBuffer<u16> = DeviceBuffer::zeroed(16);
        assert!(buf.to_vec().iter().all(|&v| v == 0));
        buf.set(3, 7);
        assert_eq!(buf.get(3), 7);
        assert_eq!(buf.get(2), 0);
    }

    #[test]
    fn write_range_stores_a_sub_range() {
        let buf = DeviceBuffer::from_vec(vec![10u32, 11, 12, 13, 14]);
        buf.write_range(1, &[21, 22, 23]);
        buf.write_range(5, &[]);
        assert_eq!(buf.into_vec(), [10, 21, 22, 23, 14]);
    }

    #[test]
    #[should_panic(expected = "write_range out of bounds")]
    fn write_range_past_the_end_panics() {
        let buf: DeviceBuffer<u32> = DeviceBuffer::zeroed(5);
        buf.write_range(3, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "write_range out of bounds")]
    fn write_range_whose_end_overflows_panics() {
        let buf: DeviceBuffer<u32> = DeviceBuffer::zeroed(5);
        buf.write_range(usize::MAX, &[1]);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let v = vec![0u64; 1024];
        let ptr = v.as_ptr();
        let buf = DeviceBuffer::from_vec(v);
        std::thread::scope(|s| {
            for t in 0..4 {
                let buf = &buf;
                s.spawn(move || {
                    for i in (t * 256)..((t + 1) * 256) {
                        buf.set(i, i as u64 * 2);
                    }
                });
            }
        });
        let host = buf.into_vec();
        assert_eq!(host.as_ptr(), ptr);
        assert_eq!(host.len(), 1024);
        for (i, v) in host.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let buf: DeviceBuffer<u8> = DeviceBuffer::zeroed(4);
        let _ = buf.get(4);
    }

    #[test]
    fn empty_buffer() {
        let buf: DeviceBuffer<u32> = DeviceBuffer::zeroed(0);
        assert!(buf.is_empty());
        assert!(buf.to_vec().is_empty());
    }
}
