(* Footnote 3's claim, "allocate and collect an 8 byte object" against
   "malloc/free round-trip times": bursts of 8-byte garbage allocations
   on a fresh collector interleaved with bursts of 8-byte malloc+free on
   a fresh explicit heap.  Each round's ratio is taken between
   neighbouring bursts, so host speed cancels; the result is the median
   round.  Above 1 means collecting costs more than malloc/free. *)

open Cgc_vm

let rounds = 25
let burst = 20_000

let alloc_vs_malloc_free () =
  let base = Addr.of_int 0x400000 and max_bytes = 16 * 1024 * 1024 in
  let gc = Cgc.Gc.create (Mem.create ()) ~base ~max_bytes () in
  Cgc.Gc.collect gc;
  let e = Cgc.Explicit.create (Mem.create ()) ~base ~max_bytes () in
  let ratios = ref [] in
  for _ = 1 to rounds do
    let t0 = Meter.now () in
    for _ = 1 to burst do
      ignore (Cgc.Gc.allocate gc 8)
    done;
    let t1 = Meter.now () in
    for _ = 1 to burst do
      Cgc.Explicit.free e (Cgc.Explicit.malloc e 8)
    done;
    let t2 = Meter.now () in
    ratios := (float_of_int (t1 - t0) /. float_of_int (t2 - t1)) :: !ratios
  done;
  Meter.median_float !ratios
