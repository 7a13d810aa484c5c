(** Physical planning and execution of GHD query plans.

    Physical planning walks the chosen GHD top-down, asking the §V
    optimizer for each node's attribute order (materialized attributes are
    the interface with the parent, or the GROUP BY key vertices at the
    root, and the chosen relative order of materialized attributes is
    propagated as the global order).

    Execution is Yannakakis-style and bottom-up: every child bag runs the
    generic WCOJ interpreter over its relations' tries and materializes a
    derived relation keyed by its interface, carrying all partial aggregate
    slots, its GROUP BY annotation codes and a multiplicity; the parent
    treats it exactly like a base relation. The root emits output groups.

    Two output paths: a hash aggregator in general, and a streaming
    "sorted emit" path (with a Gustavson-style sparse accumulator for the
    §V-A2 relaxed orders) when the GROUP BY keys are a prefix of the
    attribute order — the path that lets sparse matrix multiplication run
    without materializing a hash of the output. *)

type kernel_cache = { k_sig : string; k_mode : Compile.Leaf.mode }
(** The kernel disposition resolved for one plan node: which specialized
    innermost-loop shape ({!Compile.Leaf.mode}) the executor pinned, plus
    the signature of the bound tries it was resolved from (leaf-unit flags
    and the sorted-emit shape). Cached on the {!pnode} — and therefore in
    the engine's plan cache, whose epoch machinery rebuilds pnodes on
    revalidation — and re-checked per execution because bind-time filters
    rebuild tries under the same plan. *)

type pnode = {
  pbag : Ghd.bag;
  porder : int list;  (** vertex ids, execution order *)
  prelaxed : bool;
  pmaterialized : int list;
  pchildren : pnode list;
  pcost : float;
  mutable pkernel : kernel_cache option;
}

val physical :
  Config.t -> Logical.t -> dense_of:(Logical.edge -> bool) -> Ghd.t -> pnode
(** Assign attribute orders to every GHD node. *)

val rel_infos :
  Logical.t -> dense_of:(Logical.edge -> bool) -> Ghd.bag -> Attr_order.rel_info list
(** The §V relation descriptors of one bag (base relations followed by
    derived child relations) — exposed for the Fig. 5 experiments. *)

type trie_cache = Lh_storage.Trie.t Vcache.t
(** Hot-run trie cache: the §VI-A protocol measures hot runs back-to-back
    and excludes index creation, so the engine keeps per-query tries keyed
    by everything that determines their contents (table version, key
    levels, filter, carried codes, owned aggregates). *)

type row = { gcodes : int array; slots : float array }
(** One output group: codes per GROUP BY item (vertex value for key items,
    annotation code for the rest) and one value per physical slot. *)

val run : Config.t -> ?cache:trie_cache -> Logical.t -> pnode -> row list
(** Execute the plan. Rows are sorted by [gcodes]. Scalar queries yield
    exactly one row with empty [gcodes]. Budget violations raise the
    {!Lh_util.Budget} exceptions. *)

val run_scan : Config.t -> Logical.t -> row list
(** The no-join path (queries whose hypergraph has no vertices, e.g.
    TPC-H Q1/Q6): a filtered columnar scan with hash grouping, touching
    only referenced buffers. *)

val pp_plan : Logical.t -> Format.formatter -> pnode -> unit
