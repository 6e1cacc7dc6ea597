type policy =
  | Lifo
  | Address_ordered

type entry = {
  mutable items : int list;
  mutable count : int;
}

type t = {
  policy : policy;
  normal : entry array; (* index = granules, slot 0 unused *)
  atomic : entry array;
}

let create ~n_classes policy =
  let make () = Array.init (n_classes + 1) (fun _ -> { items = []; count = 0 }) in
  { policy; normal = make (); atomic = make () }

let entry t ~granules ~pointer_free =
  let arr = if pointer_free then t.atomic else t.normal in
  if granules < 1 || granules >= Array.length arr then
    invalid_arg (Printf.sprintf "Free_list: class %d out of range" granules);
  arr.(granules)

let take t ~granules ~pointer_free =
  let e = entry t ~granules ~pointer_free in
  match e.items with
  | [] -> None
  | a :: rest ->
      e.items <- rest;
      e.count <- e.count - 1;
      Some a

let rec insert_sorted a = function
  | [] -> [ a ]
  | b :: rest as l -> if a <= b then a :: l else b :: insert_sorted a rest

let add t ~granules ~pointer_free a =
  let e = entry t ~granules ~pointer_free in
  (match t.policy with
  | Lifo -> e.items <- a :: e.items
  | Address_ordered -> e.items <- insert_sorted a e.items);
  e.count <- e.count + 1

let prepend_block t ~granules ~pointer_free slots =
  let e = entry t ~granules ~pointer_free in
  e.items <- slots @ e.items;
  e.count <- e.count + List.length slots

let set_class t ~granules ~pointer_free items =
  let e = entry t ~granules ~pointer_free in
  e.items <- items;
  e.count <- List.length items

let to_list t ~granules ~pointer_free = (entry t ~granules ~pointer_free).items

let drop_in_page t ~granules ~pointer_free ~page_of ~page =
  let e = entry t ~granules ~pointer_free in
  e.items <- List.filter (fun a -> page_of a <> page) e.items;
  e.count <- List.length e.items

let total t =
  let sum arr = Array.fold_left (fun acc e -> acc + e.count) 0 arr in
  sum t.normal + sum t.atomic
