type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type t = {
  lock : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  jobs : int;
}

type 'a promise = {
  p_lock : Mutex.t;
  p_filled : Condition.t;
  mutable state : 'a state;
  p_pool : t;
}

let size t = t.jobs

(* Workers hold [lock] only while inspecting the queue, never while
   running a task. They exit once the pool is closed AND the queue is
   drained, so shutdown lets queued work finish. *)
let rec worker t =
  Mutex.lock t.lock;
  let rec next () =
    match Queue.take_opt t.queue with
    | Some job -> Some job
    | None ->
      if t.closed then None
      else begin
        Condition.wait t.work_available t.lock;
        next ()
      end
  in
  match next () with
  | None -> Mutex.unlock t.lock
  | Some job ->
    Mutex.unlock t.lock;
    job ();
    worker t

let create ~jobs =
  if jobs < 0 then invalid_arg "Pool.create: jobs must be >= 0";
  let t =
    {
      lock = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
      jobs;
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t f =
  let p =
    {
      p_lock = Mutex.create ();
      p_filled = Condition.create ();
      state = Pending;
      p_pool = t;
    }
  in
  let job () =
    let result =
      match
        Dda_obs.Trace.wrap ~name:"pool.job"
          ~args:(fun _ -> [])
          (fun () ->
             Dda_core.Failpoint.hit "pool.job";
             f ())
      with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock p.p_lock;
    p.state <- result;
    Condition.broadcast p.p_filled;
    Mutex.unlock p.p_lock
  in
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.submit: the pool is shut down"
  end;
  Queue.push job t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.lock;
  p

(* Without workers the caller does the work: pop and run queued tasks,
   oldest first, on this domain, until [stop ()] holds or the queue is
   empty. Each task is popped under the lock, so it runs exactly once
   whichever domain pops it. *)
let run_queued t ~stop =
  let take () =
    Mutex.lock t.lock;
    let job = Queue.take_opt t.queue in
    Mutex.unlock t.lock;
    job
  in
  let rec go () =
    if not (stop ()) then
      match take () with
      | Some job ->
        job ();
        go ()
      | None -> ()
  in
  go ()

let await p =
  let settled () =
    Mutex.lock p.p_lock;
    let s = p.state in
    Mutex.unlock p.p_lock;
    match s with Pending -> false | Done _ | Failed _ -> true
  in
  if p.p_pool.jobs = 0 then run_queued p.p_pool ~stop:settled;
  Mutex.lock p.p_lock;
  let rec wait () =
    match p.state with
    | Pending ->
      Condition.wait p.p_filled p.p_lock;
      wait ()
    | (Done _ | Failed _) as s -> s
  in
  let s = wait () in
  Mutex.unlock p.p_lock;
  match s with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let run t f = await (submit t f)

let map t f xs = List.map await (List.map (fun x -> submit t (fun () -> f x)) xs)

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.work_available;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  (* With workers the queue drains through them; without, here. *)
  if t.jobs = 0 then run_queued t ~stop:(fun () -> false);
  List.iter Domain.join workers
