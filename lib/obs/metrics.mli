(** Re-export of {!Wafl_sim.Metrics}, the per-engine registry. *)

include module type of struct
  include Wafl_sim.Metrics
end
