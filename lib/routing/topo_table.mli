(** Topology tables: the per-router link-state databases of PDA/MPDA.

    A table stores directed links [head -> tail] with their cost — the
    triplets [h; t; d] of the paper. The router's main table T_i and
    the per-neighbor tables T_k^i are all values of this type. *)

type t

type entry = { head : int; tail : int; cost : float }
(** [cost = infinity] inside an LSU means "delete this link". *)

val create : unit -> t
val copy : t -> t
val clear : t -> unit

val set : t -> head:int -> tail:int -> cost:float -> unit
(** Add or change a link. [cost] must be finite and positive. *)

val remove : t -> head:int -> tail:int -> unit

val cost : t -> head:int -> tail:int -> float option

val apply_entry : t -> entry -> unit
(** Apply one LSU entry: set when the cost is finite, remove when it is
    [infinity]. *)

val entries : t -> entry list
(** All links, sorted by (head, tail) for deterministic output. *)

val out_links : t -> head:int -> (int * float) list
(** (tail, cost) of links headed at [head]. *)

val nodes : t -> int list
(** Every node appearing as a head or tail, sorted. *)

val size : t -> int

val version : t -> int
(** Monotonic change counter, bumped only by mutations that actually
    alter the table (a [set] to the current cost, a [remove] of an
    absent link, or a [clear] of an empty table leave it unchanged).
    Readers cache derived state — per-neighbor shortest paths in the
    router — keyed on it. *)

type csr = {
  row : int array;  (** length n+1; edges of head [h] occupy [row.(h) .. row.(h+1)-1] *)
  dst : int array;
  cost : float array;
}
(** Flat adjacency view for hot loops: per-head edges sorted by tail,
    the same order {!out_links} produces, without per-visit list
    allocation or hashing. [dst] and [cost] may be longer than
    [row.(n)]; cells past it are spare capacity and hold no edges. *)

val csr : t -> n:int -> csr
(** The CSR view restricted to heads in [0, n)]. Cached and kept hot
    across mutations: a pure cost change ({!set} on an existing link)
    with nothing pending patches the cost cell in place, {!clear}
    empties the view, and any other mutation is logged and merged into
    the view at the next read in linear sweeps (O(m + n + k log k) for
    k logged edits, a few words allocated per edit unless the view must
    grow). A log longer than the table drops the view, which the next
    read rebuilds once, as it does when [n] changes. The returned
    arrays must not be mutated by callers and are valid snapshots only
    until the next mutation. *)

val csr_in : t -> n:int -> csr
(** The transpose of {!csr}: [row] is indexed by tail and each row
    lists the in-edges' heads (ascending) with their costs. Only edges
    with both endpoints in [0, n)] appear. Cached, patched and merged
    exactly like the forward view; a read of either view brings both
    up to date. *)

val diff : old_table:t -> new_table:t -> entry list
(** LSU entries that transform [old_table] into [new_table]:
    adds/changes carry the new cost, deletions carry [infinity]. *)

val equal : t -> t -> bool
