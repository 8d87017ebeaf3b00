(** A fixed-size domain pool.

    [jobs] worker domains are spawned at {!create} and drain one shared
    FIFO queue (stdlib [Domain] + [Mutex]/[Condition]; no external
    dependencies). Tasks are closures; {!submit} returns a promise and
    {!await} blocks for its result, re-raising the task's exception in
    the caller with the original backtrace. A task that raises does not
    poison the pool: the worker survives and keeps draining the queue.

    With [jobs = 1] the pool degenerates to in-order sequential
    execution — a single worker pops the FIFO queue, so tasks run
    exactly in submission order.

    With [jobs = 0] no domain is spawned and the caller does the work:
    {!await} runs the queued tasks on the calling domain, oldest first,
    until the awaited one has run, each inside the same wrapper a worker
    would use (the [pool.job] trace span and failpoint, exception
    capture); {!shutdown} runs every task still queued. Awaiting tasks
    in submission order therefore runs each one as it is awaited, with
    no second domain for the stop-the-world collections to bring along.

    Tasks must not {!await} promises of the same pool (a task blocking
    on another queued task can deadlock a fully busy pool); await from
    the submitting domain. *)

type t

val create : jobs:int -> t
(** Spawn [jobs] worker domains ([0]: none, see above).
    @raise Invalid_argument when [jobs < 0]. *)

val size : t -> int
(** Number of worker domains. *)

type 'a promise

val submit : t -> (unit -> 'a) -> 'a promise
(** Enqueue a task; it starts as soon as a worker is free (without
    workers: when it is awaited).
    @raise Invalid_argument after {!shutdown}. *)

val await : 'a promise -> 'a
(** Block until the task finishes; returns its value or re-raises its
    exception. Can be called any number of times. In a pool without
    workers it first runs, on the calling domain, the tasks queued up
    to and including this one that have not run yet. *)

val run : t -> (unit -> 'a) -> 'a
(** [run pool f] = [await (submit pool f)]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Apply [f] to every element on the pool and return the results in
    input order, whatever order the tasks finished in. If several tasks
    raise, the exception of the earliest element propagates. *)

val shutdown : t -> unit
(** Finish all queued tasks (without workers: run them on the calling
    domain), then join every worker domain. Idempotent; subsequent
    {!submit}s are refused. *)
