(** Batched admission pipeline.

    Connection threads hand submissions to {!submit} and block for the
    verdict; a single admission thread drains the queue in arrival
    order, chops it into batches of at most [max_batch], and decides
    each batch with {!Datalawyer.Engine.submit_batch}, which admits the
    members one at a time in arrival order. Accepted work is made
    durable by one forced WAL flush per batch (group commit), so the
    store should be opened with the [Never] fsync policy.

    The engine is single-threaded by design; funnelling every mutation
    through the one admission thread is what makes concurrent SUBMITs
    safe, and the admission sequence number returned with each verdict
    is the serial order the engine actually used. *)

open Datalawyer

type verdict =
  | Accepted of { seq : int; rows : int }
  | Rejected of { seq : int; messages : string list }
  | Failed of { seq : int; code : string; message : string }
      (** the SQL did not parse, evaluation raised, or the server is
          draining *)

(* One queued submission: the admission thread fills [result] and
   signals [cond] to release the waiting connection thread. *)
type pending = {
  uid : int;
  sql : string;
  mutable seq : int;  (** assigned when the batch is formed *)
  mutex : Mutex.t;
  cond : Condition.t;
  mutable result : verdict option;
}

(* Batch-size histogram: eight buckets, exponentially wider. *)
let hist_buckets = [| "1"; "2"; "3-4"; "5-8"; "9-16"; "17-32"; "33-64"; "65+" |]

let bucket_of n =
  if n <= 1 then 0
  else if n = 2 then 1
  else if n <= 4 then 2
  else if n <= 8 then 3
  else if n <= 16 then 4
  else if n <= 32 then 5
  else if n <= 64 then 6
  else 7

type t = {
  engine : Engine.t;
  max_batch : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : pending Queue.t;
  mutable running : bool;
  mutable thread : Thread.t option;
  mutable next_seq : int;
  (* counters, written by the admission thread under [lock] *)
  mutable submissions : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable failed : int;
  mutable batches : int;
  hist : int array;
  mutable snapshot_age : int;
      (** submissions decided against the current committed engine state
          since an admission last changed it *)
}

type stats = {
  s_submissions : int;
  s_accepted : int;
  s_rejected : int;
  s_failed : int;
  s_batches : int;
  s_hist : (string * int) list;
  s_snapshot_age : int;
  s_max_batch : int;
}

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      s_submissions = t.submissions;
      s_accepted = t.accepted;
      s_rejected = t.rejected;
      s_failed = t.failed;
      s_batches = t.batches;
      s_hist =
        List.filteri (fun i _ -> t.hist.(i) > 0)
          (Array.to_list (Array.mapi (fun i l -> (l, t.hist.(i))) hist_buckets));
      s_snapshot_age = t.snapshot_age;
      s_max_batch = t.max_batch;
    }
  in
  Mutex.unlock t.lock;
  s

let fulfill p v =
  Mutex.lock p.mutex;
  p.result <- Some v;
  Condition.signal p.cond;
  Mutex.unlock p.mutex

(* Decide one batch. Runs on the admission thread; must not raise. *)
let process t (batch : pending list) =
  (* Parse first: members whose SQL does not parse fail up front and are
     excluded from the engine batch, preserving everyone else's order. *)
  let parsed =
    List.map
      (fun p ->
        match Relational.Parser.query p.sql with
        | q -> (p, Ok q)
        | exception e ->
          let code =
            match e with
            | Relational.Errors.Sql_error _ -> Protocol.err_sql
            | _ -> Protocol.err_internal
          in
          (p, Error (code, Relational.Errors.to_string e)))
      batch
  in
  let members =
    List.filter_map
      (function
        | p, Ok q ->
          Some
            ( p,
              {
                Engine.batch_uid = p.uid;
                batch_extra = [];
                batch_query = q;
              } )
        | _, Error _ -> None)
      parsed
  in
  let outcomes =
    match members with
    | [] -> []
    | _ -> (
      match Engine.submit_batch t.engine (List.map snd members) with
      | results -> List.combine (List.map fst members) results
      | exception e ->
        let err = Error e in
        List.map (fun (p, _) -> (p, err)) members)
  in
  let committed = ref false in
  let verdicts =
    List.map
      (fun (p, r) ->
        match (r : (Engine.outcome, exn) result) with
        | Ok (Engine.Accepted (res, _)) ->
          committed := true;
          ( p,
            Accepted
              { seq = p.seq; rows = List.length res.Relational.Executor.out_rows }
          )
        | Ok (Engine.Rejected (messages, _)) ->
          ( p, Rejected { seq = p.seq; messages } )
        | Error e ->
          ( p,
            Failed
              {
                seq = p.seq;
                code = Protocol.err_internal;
                message = Relational.Errors.to_string e;
              } ))
      outcomes
  in
  (* Group commit: the engine buffers its WAL records (store opened with
     fsync policy [Never]); one forced flush makes the whole batch
     durable with a single fsync. *)
  if !committed then
    Option.iter (Persistence.Store.flush ~sync:true) (Engine.persist_store t.engine);
  let verdicts =
    verdicts
    @ List.filter_map
        (function
          | (p : pending), Error (code, message) ->
            Some (p, Failed { seq = p.seq; code; message })
          | _, Ok _ -> None)
        parsed
  in
  Mutex.lock t.lock;
  t.batches <- t.batches + 1;
  let n = List.length batch in
  t.hist.(bucket_of n) <- t.hist.(bucket_of n) + 1;
  t.submissions <- t.submissions + n;
  if !committed then t.snapshot_age <- 0 else t.snapshot_age <- t.snapshot_age + n;
  List.iter
    (fun (_, v) ->
      match v with
      | Accepted _ -> t.accepted <- t.accepted + 1
      | Rejected _ -> t.rejected <- t.rejected + 1
      | Failed _ -> t.failed <- t.failed + 1)
    verdicts;
  Mutex.unlock t.lock;
  List.iter (fun (p, v) -> fulfill p v) verdicts

let rec loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && t.running do
    Condition.wait t.nonempty t.lock
  done;
  if Queue.is_empty t.queue && not t.running then Mutex.unlock t.lock
  else begin
    (* Pop up to [max_batch] submissions in arrival order and stamp
       their admission sequence numbers. *)
    let batch = ref [] in
    let n = ref 0 in
    while (not (Queue.is_empty t.queue)) && !n < t.max_batch do
      let p = Queue.pop t.queue in
      p.seq <- t.next_seq;
      t.next_seq <- t.next_seq + 1;
      batch := p :: !batch;
      incr n
    done;
    Mutex.unlock t.lock;
    let batch = List.rev !batch in
    (try process t batch
     with e ->
       (* [process] itself failed: the batch members still must not hang. *)
       let message = Relational.Errors.to_string e in
       List.iter
         (fun p ->
           if p.result = None then
             fulfill p
               (Failed { seq = p.seq; code = Protocol.err_internal; message }))
         batch);
    loop t
  end

let create ~engine ~max_batch () =
  if max_batch < 1 then invalid_arg "Admission.create: max_batch < 1";
  {
    engine;
    max_batch;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    running = false;
    thread = None;
    next_seq = 1;
    submissions = 0;
    accepted = 0;
    rejected = 0;
    failed = 0;
    batches = 0;
    hist = Array.make (Array.length hist_buckets) 0;
    snapshot_age = 0;
  }

let start t =
  Mutex.lock t.lock;
  if t.thread <> None then begin
    Mutex.unlock t.lock;
    invalid_arg "Admission.start: already started"
  end;
  t.running <- true;
  t.thread <- Some (Thread.create loop t);
  Mutex.unlock t.lock

let submit t ~uid ~sql =
  let p =
    {
      uid;
      sql;
      seq = 0;
      mutex = Mutex.create ();
      cond = Condition.create ();
      result = None;
    }
  in
  Mutex.lock t.lock;
  if not t.running then begin
    Mutex.unlock t.lock;
    Failed { seq = 0; code = Protocol.err_shutdown; message = "server is draining" }
  end
  else begin
    Queue.push p t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.lock;
    Mutex.lock p.mutex;
    let rec await () =
      match p.result with
      | Some v -> v
      | None ->
        Condition.wait p.cond p.mutex;
        await ()
    in
    let v = await () in
    Mutex.unlock p.mutex;
    v
  end

let stop t =
  Mutex.lock t.lock;
  let th = t.thread in
  t.running <- false;
  t.thread <- None;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  (* The admission thread drains the queue before exiting, so every
     already-enqueued submission still gets a real verdict. *)
  Option.iter Thread.join th
