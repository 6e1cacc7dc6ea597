(** Per-size-class free lists of object addresses.

    The sweeper rebuilds these in address order (which the paper's
    conclusion credits with reduced fragmentation: "it is usually much
    less expensive to keep free lists sorted by address"); the explicit
    allocator baseline can instead push freed objects LIFO to expose the
    difference. *)

type t

type policy =
  | Lifo  (** freed objects are pushed on the front *)
  | Address_ordered  (** freed objects are inserted in address order *)

val create : n_classes:int -> policy -> t
(** Classes are indexed [1 .. n_classes]; each class has two lists, one
    for normal and one for pointer-free pages (objects of the two kinds
    live on different pages and must not mix). *)

val take : t -> granules:int -> pointer_free:bool -> int option
(** Pop the first free object of the class, if any. *)

val add : t -> granules:int -> pointer_free:bool -> int -> unit
(** Return one object to the class, honouring the policy. *)

val set_class : t -> granules:int -> pointer_free:bool -> int list -> unit
(** Replace a class's entire list (used by the sweeper, which produces
    address-ordered lists by construction). *)

val prepend_block : t -> granules:int -> pointer_free:bool -> int list -> unit
(** Put a freshly carved page's slots (in ascending order) at the front
    of the class so they are handed out lowest-address-first. *)

val to_list : t -> granules:int -> pointer_free:bool -> int list
(** Non-destructive snapshot of a class's entries, front first. *)

val drop_in_page : t -> granules:int -> pointer_free:bool -> page_of:(int -> int) -> page:int -> unit
(** Remove every entry whose [page_of] address equals [page] (used when
    an empty page is withdrawn from a size class). *)

val total : t -> int
(** Total free objects across all classes. *)
