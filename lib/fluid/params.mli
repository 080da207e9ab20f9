(** Routing parameter tables: the fractions phi_{i,dst,k} of router
    [i]'s traffic for destination [dst] forwarded over link (i, k)
    (paper Section 2.1, Property 1).

    Property 1 — phi is zero on non-links and at the destination,
    non-negative, and sums to one over the successor set — is enforced
    at every mutation; [validate] re-validates globally and is
    exercised by the test-suite after every heuristic step.

    Every layer of the fluid model indexes links by one id, the CSR
    edge id of {!Mdr_topology.Graph.out_csr}: slot [s] of router [i]'s
    neighbour array is edge [row.(i) + s] of the topology's out-CSR at
    the time the table was created. Link flows, delay models and link
    costs are arrays by that id, and every
    function that combines two of them checks that they share the same
    edge layout ({!same_edges}). *)

type t

val create : Mdr_topology.Graph.t -> t
(** All fractions zero (no destination routed yet). The edge layout is
    the topology's out-CSR at this moment. *)

val copy : t -> t

val assign : t -> from_:t -> unit
(** Overwrite every fraction in the first table with those of
    [from_].
    @raise Invalid_argument unless both tables have the same edge
    layout (the same neighbour arrays, slot for slot): fractions are
    stored by slot, so copying across layouts would move them to other
    neighbours. *)

val topology : t -> Mdr_topology.Graph.t

val edges : t -> Mdr_topology.Graph.csr
(** The edge layout the fractions are stored by (see above). Must not
    be mutated. *)

val same_edges : Mdr_topology.Graph.csr -> Mdr_topology.Graph.csr -> bool
(** Whether two layouts list the same (src, dst) links at the same edge
    ids. Constant time when both come from one topology's cached view;
    linear in the link count otherwise. *)

val find_edge : Mdr_topology.Graph.csr -> src:int -> dst:int -> int
(** The edge id of link (src, dst), or [-1] when there is none. Scans
    [src]'s out-links. *)

val edge_base : t -> Mdr_topology.Graph.node -> int
(** The edge id of a router's slot 0. *)

val neighbor_array : t -> Mdr_topology.Graph.node -> Mdr_topology.Graph.node array
(** Out-neighbors of a node in slot order; fraction vectors index into
    this array. Must not be mutated. *)

val slot : t -> node:int -> via:int -> int
(** The slot of neighbour [via] of [node], or [-1] when [via] is not a
    neighbour. Scans the neighbour array. *)

val row : t -> node:int -> dst:int -> float array
(** The fractions of (node, dst) by slot — the table's own storage, for
    hot loops that walk slots. Must not be mutated; use the setters. *)

val fraction : t -> node:int -> dst:int -> via:int -> float
(** 0 when [via] is not a neighbor of [node]. *)

val fractions : t -> node:int -> dst:int -> (Mdr_topology.Graph.node * float) list
(** Neighbors with non-zero fraction, in slot order. *)

val set_fractions : t -> node:int -> dst:int -> (Mdr_topology.Graph.node * float) list -> unit
(** Replace the distribution for (node, dst). The list must mention
    only neighbors of [node], with non-negative entries summing to 1
    (within 1e-9) — or be empty to clear the entry.
    @raise Invalid_argument otherwise. *)

val set_slots : t -> node:int -> dst:int -> first:int -> float array -> unit
(** [set_fractions] with the entries given by slot: [values.(s)] is
    the fraction toward slot [s] (0 for no entry; [values] may be
    longer than the row). The sum that validates and renormalises the
    row adds slot [first] first and then the others in slot order, so
    the stored bits equal those of [set_fractions] over the list
    [(first entry) :: (other non-zero entries in slot order)].
    @raise Invalid_argument as [set_fractions] does, or when [first]
    is not a slot. *)

val set_single : t -> node:int -> dst:int -> via:Mdr_topology.Graph.node -> unit
(** Route (node, dst) entirely via one neighbor. *)

val clear : t -> node:int -> dst:int -> unit

val successors : t -> node:int -> dst:int -> Mdr_topology.Graph.node list
(** Neighbors carrying a positive fraction (the successor set S,
    Eq. 9). *)

val is_routed : t -> node:int -> dst:int -> bool

val validate : t -> (unit, string) result
(** Check Property 1 for every routed (node, dst) pair. *)

val successor_graph_is_acyclic : t -> dst:int -> bool
(** Whether the routing graph SG_dst implied by the successor sets is
    a DAG (paper: required for minimum delays to be approached). *)
