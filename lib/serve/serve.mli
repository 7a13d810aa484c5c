(** Concurrent query service over epoch-pinned snapshots.

    One {!Engine.t} owns ingest (the writer); readers never touch it.
    Every committed catalog state is frozen into an {e epoch} — an
    immutable {!Levelheaded.Engine.snapshot} tagged with the writer's
    generation counter. Sessions query view engines over these snapshots:

    - a query {e pins} the epoch it starts under; ingest that commits
      mid-query publishes a {e new} epoch without disturbing the pinned
      one, so the query observes exactly one catalog state end to end;
    - {!ingest_rows} / {!load_csv} build the next state install-on-success
      on the writer, freeze it, and swap it in atomically — a failed
      ingest (typed error, injected fault) leaves the served epoch
      untouched;
    - a superseded epoch is {e retired} and reclaimed once its pin count
      drops to zero; pinned epochs are never reclaimed.

    Freezing an epoch copies nothing (O(tables), see
    {!Levelheaded.Engine.snapshot}). Each (session, epoch) view engine
    keeps its own plan cache, but tries and dense views come from one
    cache per service, keyed by table version: every session of every
    epoch reuses them, an ingest makes only the replaced table's entries
    cold, and reclaiming an epoch drops the entries of every version no
    live epoch still holds.

    Admission control sits on the existing budget machinery: a bounded
    service-wide admission queue and a per-session outstanding cap, both
    rejecting with typed {!error} [Overloaded]; per-query time/memory
    limits come from [Config.budget], cloned per view so concurrent
    queries meter independently. Asynchronous work is scheduled on the
    shared domain pool's job lane ({!Lh_util.Pool.submit}) with one
    round-robin group per session, so no session starves another.

    Knobs: [LH_MAX_SESSIONS] (default 8) and [LH_QUEUE_DEPTH] (default
    32) seed {!create}'s defaults.

    Telemetry: [serve.*] counters, the [serve.queue_wait] histogram, and
    per-session query profiles flowing into the engine's slow-query log
    (install a sink with [?slow_log]). *)

module Engine := Levelheaded.Engine

type t
(** A service: one writer engine, the live epochs, the session table. *)

type session
(** A client session. A session runs one query at a time; concurrency
    comes from many sessions. Sessions are cheap; close them. *)

type error =
  | Overloaded of string
      (** admission rejected: queue full, session cap reached, or too
          many sessions *)
  | Closed of string  (** the service or session has been closed *)
  | Engine_error of Engine.Error.t  (** typed engine failure, passed through *)

exception Error of error

val error_to_string : error -> string

(** {1 Service lifecycle} *)

val create :
  ?config:Levelheaded.Config.t ->
  ?max_sessions:int ->
  ?queue_depth:int ->
  ?session_depth:int ->
  ?slow_log:(Levelheaded.Profile.t -> unit) ->
  ?store:Lh_durable.Store.t ->
  ?checkpoint_every:int ->
  Engine.t ->
  t
(** Wrap a writer engine and freeze its current catalog as the first
    epoch. The caller must stop using the engine directly for queries or
    ingest — the service owns it. [config] (default: the engine's)
    configures the view engines; its [budget] is cloned per view.
    [max_sessions] defaults to [LH_MAX_SESSIONS] (8), [queue_depth] — the
    service-wide cap on admitted-but-unfinished queries — to
    [LH_QUEUE_DEPTH] (32), [session_depth] — outstanding queries per
    session — to 8. [slow_log] receives the {!Levelheaded.Profile.t} of
    every query crossing [Config.slow_log_ms], any session.

    [store] attaches a durable store (see {!Lh_durable.Store}): every
    ingest is then logged to the WAL {e before} it is published, and the
    caller's acknowledgement implies the batch reached the configured
    sync point — restart recovery ({!Lh_durable.Store.open_dir} +
    {!Engine.restore} before [create]) lands on the last acknowledged
    state. [checkpoint_every] (default [LH_CHECKPOINT_EVERY], 0 = never)
    snapshots the whole catalog and resets the WAL every that many
    durable ingests. *)

val close : t -> unit
(** Close every session and refuse new work. Idempotent. In-flight
    queries finish; their sessions then report [Closed]. Closes the
    attached durable store (group-commit remainder fsynced). *)

val shutdown : ?deadline:float -> t -> bool
(** Graceful shutdown: mark the service closed (new sessions and queries
    get [Closed]), wait up to [deadline] seconds (default 5) for
    in-flight queries to drain, then {!close} — which flushes and fsyncs
    the WAL. Returns [false] when the deadline expired with queries
    still in flight (they still finish, but were not waited for).
    Idempotent. *)

val current_epoch : t -> int
(** The epoch new queries pin. Monotone non-decreasing. *)

val epochs : t -> (int * int * bool) list
(** Live (unreclaimed) epochs, newest first, as
    [(id, pins, retired)]. *)

(** {1 Sessions} *)

val open_session : t -> session
(** Raises {!Error} [Overloaded] at [max_sessions], [Closed] after
    {!close}. *)

val close_session : session -> unit
(** Releases the session's pin (if any) and its cached view engines.
    Idempotent. *)

val session_id : session -> int

val pin : session -> int
(** Pin the current epoch explicitly: subsequent queries of this session
    run against it even as ingest publishes newer epochs, and it cannot
    be reclaimed until {!unpin} (or {!close_session}). Returns the epoch
    id. Re-pinning moves the pin to the current epoch. *)

val unpin : session -> unit
(** Drop the explicit pin; subsequent queries pin the then-current epoch
    per query. No-op when not pinned. *)

val pinned_epoch : session -> int option

(** {1 Queries}

    All query entry points return typed results; engine failures arrive
    as [Engine_error] (budget overruns as
    [Engine_error Budget_exceeded]). *)

val query : session -> string -> (Lh_storage.Table.t, error) result
(** Admit, pin (unless {!pin}ned), execute against the pinned epoch's
    snapshot, unpin. Blocks the calling domain for the duration. *)

val query_epoch : session -> string -> (Lh_storage.Table.t * int, error) result
(** {!query} plus the epoch id the query actually ran under — the
    consistency oracle's anchor: re-running the same SQL sequentially
    against that epoch's snapshot must give a bit-identical result. *)

type 'a ticket
(** A pending asynchronous result. *)

val submit : session -> string -> (Lh_storage.Table.t * int, error) result ticket
(** Admission happens now (an [Overloaded]/[Closed] rejection is
    delivered through the ticket immediately); execution happens on the
    shared pool's job lane, fairly interleaved across sessions. *)

val await : 'a ticket -> 'a
(** Block until the submitted query finishes. *)

val poll : 'a ticket -> 'a option
(** Non-blocking {!await}. *)

(** {1 Prepared statements} *)

type prepared

val prepare : session -> string -> (prepared, error) result
(** Parse and plan against the session's current view. The plan is
    re-prepared transparently when a later execution runs under a newer
    epoch (same revalidation discipline as [Engine.prepare]). *)

val exec_prepared :
  prepared -> Lh_storage.Dtype.value list -> (Lh_storage.Table.t * int, error) result
(** Bind and execute under the session's pinned (or current) epoch;
    returns the result and the epoch it ran under. *)

(** {1 Ingest (writers)} *)

val ingest_rows :
  t ->
  name:string ->
  schema:Lh_storage.Schema.t ->
  Lh_storage.Dtype.value list list ->
  (int, error) result
(** Serialized with other writers. Builds the table install-on-success
    on the writer, freezes a new snapshot, publishes it as the new
    current epoch and retires the superseded one (reclaimed when its pin
    count reaches zero). Returns the new epoch id. On error nothing is
    published, the served epoch is unchanged, and the writer's catalog
    entry for [name] is put back as it was. *)

val load_csv :
  t ->
  name:string ->
  schema:Lh_storage.Schema.t ->
  ?sep:char ->
  string ->
  (int, error) result
(** CSV variant of {!ingest_rows}. *)

(** {1 Introspection} *)

type stats = {
  st_sessions : int;  (** currently open sessions *)
  st_inflight : int;  (** admitted, unfinished queries *)
  st_epochs : int;  (** live (unreclaimed) epochs *)
  st_current : int;  (** current epoch id *)
}

val stats : t -> stats

val cached_versions : t -> int list
(** The table versions ({!Lh_storage.Table.t.id}) the service-wide trie
    and dense-view cache holds entries for, sorted. Every one belongs to
    a live epoch once the epochs that held the others are reclaimed. *)

(** Fault sites (see {!Lh_fault.Fault}): ["serve.admit"] fires on every
    admission decision before any accounting mutates; ["epoch.publish"]
    fires after the writer committed but before the swap — the ingest
    call errors, the served epoch is unchanged, and retrying the ingest
    recovers; ["epoch.retire"] fires before an epoch is reclaimed — the
    triggering caller errors, the epoch merely stays live until the next
    reclaim sweep. All three uphold the crash-only contract: a typed
    error to the one affected caller, every other session unaffected. *)
