% Morrison-equation wave excitation force on a submerged sphere.
nt = 192;
nz = 64;
nfreq = 3;
g = 9.81;
rho = 1025.0;
Cd = 1.0;
Cm = 2.0;
D = 1.2;
H = 2.5;
span = 12.0;
Asec = pi * D^2 / 4;
Vol = pi * D^3 / 6;
total = 0.0;
peak = 0.0;
for fi = 1:nfreq
    T = 6.0 + fi;
    om = 2*pi / T;
    k = om^2 / g;                        % deep-water dispersion
    t = linspace(0, T, nt);
    zrel = linspace(0, span, nz);
    decay = exp(-k * zrel');             % nz x 1 depth attenuation
    ut = cos(om * t);                    % 1 x nt time profile
    dt = T / (nt - 1);
    up = circshift(ut, -1);              % vector shifts for the
    um = circshift(ut, 1);               % centred time derivative
    at = (up - um) / (2 * dt);
    u = (H * om / 2) * decay * ut;       % outer product: nz x nt
    a = (H * om / 2) * decay * at;       % outer product: nz x nt
    drag = 0.5 * rho * Cd * Asec * (u .* abs(u));
    inertia = rho * Cm * Vol * a;
    f = drag + inertia;
    impulse = trapz2(f, span / (nz - 1), dt);
    fmax = max(max(abs(f)));
    total = total + impulse;
    if fmax > peak
        peak = fmax;
    end
end
fprintf('ocean: total=%.6e peak=%.6e\n', total, peak);
