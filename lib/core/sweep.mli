(** The sweep phase.

    Walks every committed page in address order, reclaims unmarked
    objects (feeding the finalization queue), returns fully empty pages
    to the heap's free-page pool, and rebuilds the small-object free
    lists.  Because pages and objects are visited in increasing address
    order, the rebuilt free lists come out address-ordered — the cheap
    anti-fragmentation measure the paper's conclusion describes. *)

type result = {
  swept_objects : int;  (** objects reclaimed *)
  swept_bytes : int;
  live_objects : int;
  live_bytes : int;
  pages_released : int;  (** pages returned to the free pool *)
}

val run :
  ?policy:(int -> Page.t -> [ `Sweep | `Keep_live ]) ->
  ?quarantined:(int -> bool) ->
  Heap.t ->
  Free_list.t ->
  Finalize.t ->
  Stats.t ->
  result
(** Consumes the mark bits set by {!Mark.run} (they are cleared for
    small pages as a side effect of being consulted; large-object mark
    flags are reset).

    [policy] (default: sweep everything) lets a generational collector
    exempt old pages: a [`Keep_live] page contributes its allocated
    objects to the live counts and is otherwise left untouched — its
    mark bits are not consulted, its free slots are NOT returned to the
    free lists (so fresh allocation stays on young pages). *)
