(* Fixture: Rod_algorithm.plan is Plan.make one call away — placing and
   materializing in one step still skips the admission gate. *)
(* rodproto: protocol — fixture: an ungated one-step placement *)
(* rodproto-expect: proto/ungated-plan *)

module Rod_algorithm = struct
  let plan problem = Array.copy problem
end

let deploy problem = Rod_algorithm.plan problem
