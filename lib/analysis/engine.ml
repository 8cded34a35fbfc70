type t = {
  passes : Pass.instance list;
  findings : (Report.finding, unit) Hashtbl.t;
  suppress : string list;
  hb : Hb.t option;  (* shared happens-before view, fed before the passes *)
}

let create ?(suppress = []) ?hb passes = { passes; findings = Hashtbl.create 32; suppress; hb }

let hb t = t.hb

(* A top-level loop rather than [List.iter] over a closure capturing [t]:
   every memory access emits an event, and this way feeding one allocates
   nothing beyond what the passes do. *)
let rec feed findings ev = function
  | [] -> ()
  | (p : Pass.instance) :: rest ->
      (match p.feed ev with
      | [] -> ()
      | fs -> List.iter (fun f -> Hashtbl.replace findings f ()) fs);
      feed findings ev rest

let emit t ev =
  (match t.hb with Some hb -> Hb.observe hb ev | None -> ());
  feed t.findings ev t.passes

(* Suppression removes suppressed labels from a finding; a finding whose
   labels are all suppressed is dropped entirely (a finding that never had
   labels is kept — suppression is per-label by design). Sorting with the
   total finding order makes the result independent of hash iteration. *)
let findings t =
  Hashtbl.fold (fun f () acc -> f :: acc) t.findings []
  |> List.filter_map (fun (f : Report.finding) ->
         match List.filter (fun l -> not (List.mem l t.suppress)) f.labels with
         | [] when f.labels <> [] -> None
         | labels -> Some { f with labels })
  |> List.sort_uniq Report.compare_finding
