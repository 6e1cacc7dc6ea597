open Cgc_vm

type result = {
  swept_objects : int;
  swept_bytes : int;
  live_objects : int;
  live_bytes : int;
  pages_released : int;
}

let no_quarantine _ = false

let default_policy _ _ = `Sweep

let run ?(policy = default_policy) ?(quarantined = no_quarantine) heap free_lists finalize stats =
  let page_size = Heap.page_size heap in
  let n_classes = page_size / 8 in
  (* Address-ordered accumulators, built in reverse and flipped at the
     end.  Index 0 is unused (class indexes start at 1). *)
  let acc_normal = Array.make (n_classes + 1) [] in
  let acc_atomic = Array.make (n_classes + 1) [] in
  let swept_objects = ref 0 in
  let swept_bytes = ref 0 in
  let live_objects = ref 0 in
  let live_bytes = ref 0 in
  let pages_released = ref 0 in
  let n_committed = Heap.committed_pages heap in
  for i = 0 to n_committed - 1 do
    match (Heap.page heap i, policy i (Heap.page heap i)) with
    | (Page.Uncommitted | Page.Free | Page.Large_tail _), _ -> ()
    | Page.Small s, `Keep_live ->
        let live_here = Bitset.count s.Page.alloc in
        live_objects := !live_objects + live_here;
        live_bytes := !live_bytes + (live_here * s.Page.object_bytes)
    | Page.Large_head l, `Keep_live ->
        if l.Page.l_allocated then begin
          incr live_objects;
          live_bytes := !live_bytes + l.Page.object_bytes
        end
    | Page.Small s, `Sweep ->
        let page_base = Addr.to_int (Heap.page_addr heap i) + s.Page.first_offset in
        let live_here = ref 0 in
        Bitset.iter_set s.Page.alloc (fun index ->
            if Bitset.mem s.Page.mark index then incr live_here
            else begin
              Bitset.remove s.Page.alloc index;
              incr swept_objects;
              swept_bytes := !swept_bytes + s.Page.object_bytes;
              Finalize.on_reclaimed finalize (page_base + (index * s.Page.object_bytes))
            end);
        Bitset.clear s.Page.mark;
        if !live_here = 0 then begin
          Heap.set_page heap i Page.Free;
          incr pages_released
        end
        else begin
          live_objects := !live_objects + !live_here;
          live_bytes := !live_bytes + (!live_here * s.Page.object_bytes);
          if not (quarantined i) then begin
            let acc = if s.Page.pointer_free then acc_atomic else acc_normal in
            Bitset.iter_clear s.Page.alloc (fun index ->
                acc.(s.Page.granules) <-
                  (page_base + (index * s.Page.object_bytes)) :: acc.(s.Page.granules))
          end
        end
    | Page.Large_head l, `Sweep ->
        if l.Page.l_allocated then begin
          if l.Page.l_marked then begin
            incr live_objects;
            live_bytes := !live_bytes + l.Page.object_bytes
          end
          else begin
            l.Page.l_allocated <- false;
            incr swept_objects;
            swept_bytes := !swept_bytes + l.Page.object_bytes;
            Finalize.on_reclaimed finalize (Addr.to_int (Heap.page_addr heap i));
            for j = i to i + l.Page.n_pages - 1 do
              Heap.set_page heap j Page.Free
            done;
            pages_released := !pages_released + l.Page.n_pages
          end
        end;
        l.Page.l_marked <- false
  done;
  for granules = 1 to n_classes do
    Free_list.set_class free_lists ~granules ~pointer_free:false (List.rev acc_normal.(granules));
    Free_list.set_class free_lists ~granules ~pointer_free:true (List.rev acc_atomic.(granules))
  done;
  stats.Stats.objects_freed <- stats.Stats.objects_freed + !swept_objects;
  stats.Stats.bytes_freed <- stats.Stats.bytes_freed + !swept_bytes;
  stats.Stats.live_objects <- !live_objects;
  stats.Stats.live_bytes <- !live_bytes;
  {
    swept_objects = !swept_objects;
    swept_bytes = !swept_bytes;
    live_objects = !live_objects;
    live_bytes = !live_bytes;
    pages_released = !pages_released;
  }
