//! Flits — the flow-control units transported by the network.

use shg_topology::TileId;

/// A flow-control unit. Packets are sequences of flits; the head flit
/// carries the routing information (source, destination, hop index) and
/// body/tail flits follow the head's virtual-channel reservation.
///
/// Sixteen bytes: a saturated network moves and buffers millions of
/// these, so the creation cycle is a `u32` (the engines assert at
/// construction that a run's last cycle fits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Source tile.
    pub src: TileId,
    /// Destination tile.
    pub dst: TileId,
    /// Cycle the packet was created (its latency includes the time it
    /// waited at its source).
    pub created: u32,
    /// `true` for the first flit of a packet.
    pub is_head: bool,
    /// `true` for the last flit of a packet (single-flit packets are both).
    pub is_tail: bool,
    /// Index of the *next* hop in the packet's routed path (0 before the
    /// first network hop).
    pub hop: u8,
    /// Virtual channel the flit occupies on its current link/buffer.
    pub vc: u8,
}

const _: () = assert!(std::mem::size_of::<Flit>() == 16);

impl Flit {
    /// The flits of one packet, head first.
    ///
    /// # Examples
    ///
    /// ```
    /// use shg_sim::Flit;
    /// use shg_topology::TileId;
    ///
    /// let flits: Vec<Flit> = Flit::packet(TileId::new(0), TileId::new(5), 4, 100).collect();
    /// assert_eq!(flits.len(), 4);
    /// assert!(flits[0].is_head && !flits[0].is_tail);
    /// assert!(flits[3].is_tail && !flits[3].is_head);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn packet(src: TileId, dst: TileId, len: u16, created: u32) -> impl Iterator<Item = Flit> {
        assert!(len > 0, "a packet needs at least one flit");
        (0..len).map(move |i| Flit {
            src,
            dst,
            created,
            is_head: i == 0,
            is_tail: i + 1 == len,
            hop: 0,
            vc: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let flits: Vec<Flit> = Flit::packet(TileId::new(0), TileId::new(1), 1, 0).collect();
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head && flits[0].is_tail);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn empty_packet_panics() {
        let _ = Flit::packet(TileId::new(0), TileId::new(1), 0, 0);
    }
}
