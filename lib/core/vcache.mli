(** A cache of structures derived from table versions (tries, dense
    views), safe to share between engines running on different domains.

    Entries are keyed by a table version ({!Lh_storage.Table.t.id}) and a
    string naming everything else the structure depends on. A version's
    contents never change, so an entry never goes stale; a replaced table
    simply has a new version, and its old entries are dropped by
    {!retain} once nothing can ask for them.

    Builds are single-flight: a miss while the same key is being built
    waits for that build instead of starting its own. No lock is held
    while a build runs. *)

type 'v t

val create : unit -> 'v t

val find_or_build : 'v t -> version:int -> string -> (unit -> 'v) -> 'v * bool
(** The cached value, or [build ()]'s, cached. The flag is [true] when
    this call did not run [build] (a hit, possibly after waiting for
    another caller's build). If [build] raises, nothing is cached, one
    waiter takes the build over, and the exception propagates. *)

val retain : 'v t -> live:(int -> bool) -> unit
(** Drop every entry whose version fails [live]. *)

val versions : 'v t -> int list
(** The versions holding entries, sorted. *)
