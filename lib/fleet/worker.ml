(* The worker side of fleet mode: a protocol loop around one shard
   exploration at a time, on one thread. Deliberately generic — the actual
   exploration is the [run] callback, so this module never depends on the
   case registry or the explorer. See worker.mli for where the beats come
   from. *)

let serve ?(heartbeat_period = 0.05) ~on_preempt ~run () =
  let input = Transport.reader Unix.stdin in
  let quit = ref false in
  (* Coordinator death — EOF on stdin, or a frame that cannot be sent — is a
     preempt-then-quit, so an orphaned worker stops instead of exploring
     into the void. *)
  let stop () =
    if not !quit then begin
      quit := true;
      on_preempt ()
    end
  in
  let send msg =
    try Transport.write Unix.stdout msg with Transport.Closed _ | Unix.Unix_error _ -> stop ()
  in
  let shard = ref (-1) and beats = ref 0 and next_beat = Atomic.make 0. in
  (* A preempt read behind an assignment, held for that shard's first
     [tick]: [run] may clear a stale interrupt before it starts. *)
  let preempt_next = Atomic.make false in
  (* Beats if one is due, then reads what the coordinator sent: a preempt is
     acted on at once (or, behind an assignment, at its first tick), EOF
     stops the worker, and assignments are returned. Mid-shard none arrive:
     the coordinator assigns only to idle workers. *)
  let poll () =
    let now = Unix.gettimeofday () in
    if now >= Atomic.get next_beat then begin
      incr beats;
      Atomic.set next_beat (now +. heartbeat_period);
      send (Transport.Heartbeat { shard = !shard; beats = !beats })
    end;
    let msgs = Transport.drain input in
    if Transport.at_eof input then stop ();
    List.fold_left
      (fun assigned -> function
        | Transport.Assign { shard; attempt; payload } -> (shard, attempt, payload) :: assigned
        | Transport.Preempt ->
            if assigned = [] then on_preempt () else Atomic.set preempt_next true;
            assigned
        | Transport.Heartbeat _ | Transport.Result _ | Transport.Refused _ -> assigned)
      [] msgs
    |> List.rev
  in
  (* Called by the shard's replays, possibly on several domains at once:
     whichever finds a beat due, or makes every 256th call, and the lock
     free polls; the others go on. It never raises into the replay. *)
  let lock = Mutex.create () and calls = Atomic.make 0 in
  let tick () =
    if Atomic.get preempt_next && Atomic.exchange preempt_next false then on_preempt ();
    if
      (Atomic.fetch_and_add calls 1 land 255 = 255 || Unix.gettimeofday () >= Atomic.get next_beat)
      && Mutex.try_lock lock
    then begin
      ignore (poll ());
      Mutex.unlock lock
    end
  in
  let explore (sid, attempt, payload) =
    if not !quit then begin
      shard := sid;
      let reply =
        match run ~tick ~shard:sid ~attempt ~payload with
        | Ok payload -> Transport.Result { shard = sid; payload }
        | Error reason -> Transport.Refused { shard = sid; reason }
        | exception exn -> Transport.Refused { shard = sid; reason = Printexc.to_string exn }
      in
      shard := -1;
      Atomic.set preempt_next false;
      send reply
    end
  in
  (* Idle: wait on stdin until the next beat is due. The first beat doubles
     as the ready handshake. *)
  let rec idle () =
    List.iter explore (poll ());
    if not !quit then begin
      (try
         ignore
           (Unix.select [ Transport.reader_fd input ] [] []
              (Float.max 0. (Atomic.get next_beat -. Unix.gettimeofday ())))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      idle ()
    end
  in
  idle ()
