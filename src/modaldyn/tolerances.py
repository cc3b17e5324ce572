"""Every bound the package checks a number against, each stated once.

The spectral reading rests on three of them: ``DEFAULT_THRESHOLD`` decides
which eigenvalues become entries, ``DEGENERACY_GAP`` whether an entry's
eigenvector is defined at all, and ``ROW_SUM_TOL`` whether two-time
conditionals conserve probability. The others bound how far a value may
miss an exact identity (Hermiticity, unit trace, completeness) before a
check refuses it. The module imports nothing.
"""

# max |H - H^dag| of a matrix read as Hermitian
HERMITICITY_TOL = 1e-10
# eigenvalues closer than this form a degenerate cluster
DEGENERACY_GAP = 1e-9

# |Tr rho - 1| of a density matrix
TRACE_TOL = 1e-10
# how far below zero a density matrix's smallest eigenvalue may lie
PSD_TOL = 1e-10
# |norm - 1| of an epistemic state's vector
UNIT_NORM_TOL = 1e-12
# max |V^dag V - I| of an epistemic state's vectors
ORTHOGONALITY_TOL = 1e-9
# |probabilities + truncation mass - 1| of an epistemic state
MASS_BALANCE_TOL = 1e-9
# default retention threshold: smaller eigenvalues go to the truncation mass
DEFAULT_THRESHOLD = 1e-12
# a spectrum with purity above 1 - PURITY_SHORTCUT is read as pure
PURITY_SHORTCUT = 1e-10
# largest truncation mass an epistemic state may miss and be reassembled
REASSEMBLY_MASS_TOL = 1e-6

# Choi eigenvalues below this give no Kraus operator
CHOI_EIG_CUTOFF = 1e-12
# completeness residual, Choi negativity and trace-row deviation of a channel
CPT_TOL = 1e-9
# max |U^dag U - I| of a unitary
UNITARITY_TOL = 1e-10

# |row sum - 1| of a conditional table
ROW_SUM_TOL = 1e-8
# |row sum - 1| of a trajectory chain's step rows
CHAIN_ROW_SUM_TOL = 1e-6
# how far above one a conditional value may lie before it is refused
CLAMP_TOL = 1e-10

# ||alpha|^2 + |beta|^2 - 1| of the von Neumann scenario's amplitudes
AMPLITUDE_NORM_TOL = 1e-12
