(** Traffic flows induced by a routing-parameter table.

    Solves the conservation equations (paper Eqs. 1-2): per
    destination, node flow [t_i = r_i + sum over predecessors k of
    t_k * phi_k(i)], then link flow [f_(i,k) = sum over destinations of
    t_i * phi_i(k)]. Because every scheme keeps the successor graph
    acyclic, the system is solved exactly in topological order; a
    damped iterative fallback exists for deliberately cyclic inputs in
    tests. *)

exception Cyclic_routing of int
(** Raised with the offending destination when the successor graph has
    a cycle and no fallback was requested. *)

type t = private {
  node_flows : float array array;
      (** [node_flows.(i).(j)]: traffic for destination [j] passing
          through router [i] (the paper's t_ij), packets/s. *)
  link_flows : float array;
      (** flow on each directed link by edge id (see {!Params}), packets/s
          (the paper's f_ik). Every link has an entry: zero flow is
          [0.0], not an absent key. Each entry is the sum of its
          per-destination shares in ascending destination order. *)
  edges : Mdr_topology.Graph.csr;
      (** the edge layout of the routing table the flows came from *)
}

val compute : ?iterative_fallback:bool -> ?into:t -> Params.t -> Traffic.t -> t
(** [iterative_fallback] (default false) solves cyclic destinations
    with damped fixed-point iteration instead of raising. [into], when
    given, is overwritten and returned instead of fresh arrays, so an
    iteration loop allocates its flows once; it must come from a table
    with the same edge layout.
    @raise Invalid_argument when the traffic's node count or [into]'s
    edge layout does not match the table. *)

val link_flow : t -> src:int -> dst:int -> float
(** 0 when there is no link (src, dst). *)

val max_utilization : Params.t -> t -> packet_size:float -> float
(** Highest link utilisation in packets/s over the topology's
    capacities converted with [packet_size].
    @raise Invalid_argument when the flows were computed over another
    edge layout than the table's. *)

type scratch
(** Reusable buffers for the per-destination DAG sweeps: one per loop
    (a solver run), used by one domain at a time. *)

val scratch : int -> scratch
(** Buffers for tables of up to the given node count. *)

val sort_into : scratch -> Params.t -> dst:int -> int array
(** The routers in topological order of SG_dst — every router precedes
    its successors toward [dst] — written into the scratch's order
    buffer, which is returned; its first [node_count] entries are
    valid until the next call on the same scratch. Kahn's algorithm
    with a FIFO of ready routers, seeded in ascending id order.
    @raise Cyclic_routing if SG_dst has a cycle. *)

val topological_order : Params.t -> dst:int -> int list
(** {!sort_into} on fresh buffers, as a list (the destination last if
    reachable).
    @raise Cyclic_routing if SG_dst has a cycle. *)
