(* Host-speed calibration.  The host this benchmark runs on is shared:
   its speed drifts by tens of percent over minutes, and every timing
   moves with it.  A fixed unit of work, timed right before each measured
   call, tracks that drift; measured times are divided by its slowdown
   against a nominal time, which cancels the host and keeps the program.

   The unit is this file's own frozen code, so a change to the program
   never changes it: a branchy xorshift loop over a small table and a
   DPLL search on a fixed random 3-SAT instance, the kind of integer,
   branch and array work the SAT-based engine does.  It allocates
   nothing, so its time does not depend on the program's heap. *)

(* One unit's time, in ms, on the host the benchmark was written on when
   it was quiet; measured times are reported in ms of that host. *)
let nominal_ms = 2.5

let xorshift_rounds = 200_000
let table = Array.make 256 0

let xorshift () =
  let x = ref 88172645463325252 and acc = ref 0 in
  Array.fill table 0 256 0;
  for _ = 1 to xorshift_rounds do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land 255 in
    if !x land 1024 = 0 then table.(i) <- table.(i) + 1 else acc := !acc + table.(i)
  done;
  !acc

(* DPLL with clause-scanning unit propagation on 50 variables and 213
   clauses (ratio 4.26, the hard region), assignments undone through an
   explicit trail. *)
let nv = 50

let clauses =
  let st = Random.State.make [| 3 |] in
  Array.init (213 * 3) (fun _ ->
      let v = 1 + Random.State.int st nv in
      if Random.State.bool st then v else -v)

let asg = Array.make (nv + 1) 0
let trail = Array.make (nv + 1) 0

let value l =
  let v = asg.(abs l) in
  if v = 0 then 0 else if l > 0 = (v > 0) then 1 else -1

(* Unit propagation from trail length [len]: the new length, or
   -(length + 1) on a conflict. *)
let propagate len =
  let len = ref len and conflict = ref false and changed = ref true in
  while !changed && not !conflict do
    changed := false;
    let c = ref 0 in
    while !c < Array.length clauses && not !conflict do
      let sat = ref false and unk = ref 0 and last = ref 0 in
      for k = !c to !c + 2 do
        let l = clauses.(k) in
        match value l with
        | 1 -> sat := true
        | 0 ->
          incr unk;
          last := l
        | _ -> ()
      done;
      if not !sat then
        if !unk = 0 then conflict := true
        else if !unk = 1 then begin
          asg.(abs !last) <- (if !last > 0 then 1 else -1);
          trail.(!len) <- abs !last;
          incr len;
          changed := true
        end;
      c := !c + 3
    done
  done;
  if !conflict then -(!len + 1) else !len

let undo ~from ~upto =
  for k = from to upto - 1 do
    asg.(trail.(k)) <- 0
  done

(* True when satisfiable; on false, every assignment it made is undone. *)
let rec dpll len =
  let len' = propagate len in
  if len' < 0 then begin
    undo ~from:len ~upto:(-len' - 1);
    false
  end
  else begin
    let v = ref 1 in
    while !v <= nv && asg.(!v) <> 0 do
      incr v
    done;
    !v > nv
    || branch !v 1 len'
    || branch !v (-1) len'
    || begin
         undo ~from:len ~upto:len';
         false
       end
  end

and branch v sign len =
  asg.(v) <- sign;
  trail.(len) <- v;
  dpll (len + 1)
  || begin
       asg.(v) <- 0;
       false
     end

(* Time of one unit, in ms. *)
let unit_ms () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (xorshift ()));
  Array.fill asg 0 (nv + 1) 0;
  ignore (Sys.opaque_identity (dpll 0));
  (Unix.gettimeofday () -. t0) *. 1000.

(* The host's current slowdown against nominal: the mean time of the
   last [window] units over [nominal_ms].  A mean, not a median, so that
   rare long stalls (the host preempting this machine) count in the
   proportion they take from the program's own time.  [step] times one
   more unit and returns the updated slowdown; [refresh] replaces the
   whole window. *)
let window = 15
let recent = Array.make window nominal_ms
let next = ref 0

let slowdown () = Array.fold_left ( +. ) 0. recent /. float_of_int window /. nominal_ms

let step () =
  recent.(!next) <- unit_ms ();
  next := (!next + 1) mod window;
  slowdown ()

let refresh () =
  for _ = 2 to window do
    ignore (step ())
  done;
  step ()
