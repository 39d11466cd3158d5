package grid

// Fixed 8-bit coordinate lanes: BoxIndex packs region corners into one
// uint64, dimension i in bits 8i..8i+7, so a componentwise comparison runs
// as a single subtraction. (Grid cell keys size their lanes per grid instead;
// see Grid.Key.)

// laneHi has the high bit of every 8-bit lane set — the borrow detector of
// the packed-coordinate comparison.
const laneHi = 0x8080808080808080

// KeyLeq reports componentwise a ≤ b over packed 8-bit coordinate lanes in
// one subtraction: (b|hi)-a keeps each lane's high bit set exactly when
// that lane of a does not exceed b. Valid for lanes holding values ≤ 127,
// plus a-lanes of exactly 128 (a coordinate+1 at the top of a 128-cell
// dimension): such a lane borrows within itself only — (b|0x80) ≥ 0x80 —
// and correctly reports "not ≤".
func KeyLeq(a, b uint64) bool { return ((b|laneHi)-a)&laneHi == laneHi }
