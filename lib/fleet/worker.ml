(* The worker side of fleet mode: a protocol loop around one shard
   exploration at a time. Deliberately generic — the actual exploration is
   the [run] callback, so this module never depends on the case registry or
   the explorer. See worker.mli for the thread structure. *)

type event = Run of { shard : int; attempt : int; payload : string } | Quit

let serve ?(heartbeat_period = 0.05) ~on_preempt ~run () =
  let out_mutex = Mutex.create () in
  let send msg = Mutex.protect out_mutex (fun () -> Transport.write Unix.stdout msg) in
  let current = Atomic.make (-1) in
  let quit = Atomic.make false in
  let inbox = Queue.create () in
  let inbox_mutex = Mutex.create () in
  let inbox_cond = Condition.create () in
  let post ev =
    Mutex.protect inbox_mutex (fun () ->
        Queue.push ev inbox;
        Condition.signal inbox_cond)
  in
  (* Service thread: the only reader of stdin, and the heartbeat — always
     beating, whatever the main thread is doing, which is the point. It
     waits on stdin until the next beat is due. Preempts are acted on
     immediately (the main thread is busy inside [run] exactly when they
     matter). The first (idle) beat doubles as the ready handshake.
     Coordinator death — EOF on stdin, or a beat that cannot be sent — is a
     preempt-then-quit, so an orphaned worker stops instead of exploring
     into the void. *)
  let service () =
    let input = Transport.reader Unix.stdin in
    let beats = ref 0 and next_beat = ref 0. in
    let stop () =
      on_preempt ();
      post Quit
    in
    let rec loop () =
      let now = Unix.gettimeofday () in
      let beat = now >= !next_beat in
      if beat then begin
        incr beats;
        next_beat := now +. heartbeat_period
      end;
      match
        if beat then send (Transport.Heartbeat { shard = Atomic.get current; beats = !beats })
      with
      | exception Transport.Closed _ -> stop ()
      | () ->
          (try
             ignore
               (Unix.select [ Transport.reader_fd input ] [] []
                  (Float.max 0. (!next_beat -. Unix.gettimeofday ())))
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          List.iter
            (function
              | Transport.Assign { shard; attempt; payload } ->
                  post (Run { shard; attempt; payload })
              | Transport.Preempt -> on_preempt ()
              | Transport.Heartbeat _ | Transport.Result _ | Transport.Refused _ -> ())
            (Transport.drain input);
          if Transport.at_eof input then stop ()
          else if not (Atomic.get quit) then loop ()
    in
    loop ()
  in
  let server = Thread.create service () in
  let rec main () =
    let ev =
      Mutex.protect inbox_mutex (fun () ->
          while Queue.is_empty inbox do
            Condition.wait inbox_cond inbox_mutex
          done;
          Queue.pop inbox)
    in
    match ev with
    | Quit -> ()
    | Run { shard; attempt; payload } -> (
        Atomic.set current shard;
        let reply =
          match run ~shard ~attempt ~payload with
          | Ok payload -> Transport.Result { shard; payload }
          | Error reason -> Transport.Refused { shard; reason }
          | exception exn -> Transport.Refused { shard; reason = Printexc.to_string exn }
        in
        Atomic.set current (-1);
        match send reply with
        | () -> main ()
        | exception Transport.Closed _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      (* The service thread waits at most one heartbeat period before it
         sees the flag. *)
      Atomic.set quit true;
      try Thread.join server with _ -> ())
    main
